"""Campaign-core benchmark: the lockstep-vectorized engine vs its
predecessors, across the six evaluation kernels and two plan families.

Four engine generations are timed on identical plans, with identical
aggregates asserted on every row:

* ``serial``        — ``CampaignEngine.run()`` on the threaded core,
                      from cycle 0, default settings (the PR 2 state);
* ``engine``        — threaded core + checkpoint/resume + golden
                      reconvergence splicing, serial (the PR 1+2
                      engine — the comparison baseline);
* ``batched``       — the lockstep-vectorized core
                      (:mod:`repro.fi.batch`): NumPy lanes along the
                      golden path, scalar escapes, vectorized
                      reconvergence;
* ``batched+prune`` — plus the liveness pre-classification fast path
                      (``prune="liveness"``).

Two plan families per kernel:

* ``exhaustive`` — a cycle-stratified sample (``Plan.sample``) of the
  full register-file sweep (the paper's Table I workload).  Masked
  faults dominate, so almost every lane retires on the vector path:
  **this family carries the >= 4x geomean gate** (>= 2x in ``--smoke``
  CI mode).
* ``bec`` — a sample of the BEC-pruned plan (Table III workload),
  reported but *not* gated.  BEC planning already removed the
  coalescable masked sites, so this family is dominated by genuinely
  divergent runs that must execute their own (non-golden) paths on
  the scalar core — Amdahl caps the lockstep win at the masked/on-path
  fraction (measured ~1-2x on one core).  The honest conclusion: SIMD-across-
  faults accelerates the *raw sweep* workloads, and composes with —
  rather than replaces — the analytical pruning of the paper.

Run standalone (writes ``BENCH_campaign.json`` and prints a table)::

    PYTHONPATH=src python benchmarks/bench_campaign.py
    PYTHONPATH=src python benchmarks/bench_campaign.py --smoke  # CI mode

``benchmarks/report.py`` prints the cross-PR perf trajectory from all
checked-in ``BENCH_*.json`` reports.
"""

import argparse
import json
import math
import time
import tracemalloc

from repro import obs
from repro.bec.analysis import run_bec
from repro.bench.programs import compile_benchmark, get_benchmark
from repro.fi.campaign import plan_bec, plan_exhaustive
from repro.fi.config import EngineConfig
from repro.fi.engine import CampaignEngine
from repro.fi.machine import Machine

#: The evaluation kernels (paper §VI, presentation order).
PROGRAMS = ("bitcount", "dijkstra", "CRC32", "AES", "RSA", "SHA")

#: Kernels the CI smoke gate runs on (fast, stable speedups).
SMOKE_PROGRAMS = ("bitcount", "CRC32", "SHA")

#: Target plan sizes per (family, mode).  Samples are cycle-stratified
#: so injections span the whole trace.  RSA's trace is tiny (693
#: cycles), so it gets a larger sample for stable timings.
TARGET_RUNS = {
    ("exhaustive", "full"): 3000,
    ("exhaustive", "smoke"): 500,
    ("bec", "full"): 1500,
    ("bec", "smoke"): 250,
}
RSA_SCALE = 3

#: Geomean gate on `engine / best batched` over the exhaustive family.
GATE = {"full": 4.0, "smoke": 2.0}

#: Chunk size of the separately traced streaming run whose tracemalloc
#: peak lands in the report's ``peak_mem_bytes`` column.
PEAK_CHUNK_SIZE = 256


def prepare(name):
    benchmark = get_benchmark(name)
    program = compile_benchmark(name)
    regs = program.initial_regs(*benchmark.args)
    threaded = Machine(program.function,
                       memory_image=program.memory_image)
    batched = Machine(program.function,
                      memory_image=program.memory_image, core="batched")
    golden = threaded.run(regs=regs)
    return program.function, threaded, batched, regs, golden


def interval_for(golden):
    """Checkpoint every ~1/32nd of the trace (the README default)."""
    return max(1, golden.cycles // 32)


def timed(thunk):
    start = time.perf_counter()
    result = thunk()
    return result, time.perf_counter() - start


def traced_peak(thunk):
    """tracemalloc peak of one run.  Tracing costs ~2x wall time, so
    this never wraps a timed run — memory gets its own execution."""
    tracemalloc.start()
    thunk()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def bench_row(name, family, mode):
    function, threaded, batched, regs, golden = prepare(name)
    if family == "exhaustive":
        full_plan = plan_exhaustive(function, golden)
    else:
        full_plan = plan_bec(function, golden, run_bec(function))
    target = TARGET_RUNS[(family, mode)]
    if name == "RSA":
        target *= RSA_SCALE
    plan = full_plan.sample(target)
    interval = interval_for(golden)

    base, serial_s = timed(lambda: CampaignEngine(
        threaded, plan, regs=regs, golden=golden).run())
    engine = CampaignEngine(threaded, plan, regs=regs, golden=golden)
    checkpointed = EngineConfig(checkpoint_interval=interval)
    engined, engine_s = timed(lambda: engine.run(checkpointed))
    vector = CampaignEngine(batched, plan, regs=regs, golden=golden)
    batchd, batched_s = timed(lambda: vector.run(checkpointed))
    pruned, batched_prune_s = timed(lambda: vector.run(EngineConfig(
        checkpoint_interval=interval, prune="liveness")))

    for other in (engined, batchd, pruned):
        assert other.effect_counts() == base.effect_counts(), name
        assert other.distinct_traces == base.distinct_traces, name
        assert other.archived_bytes == base.archived_bytes, name
        assert [(effect, signature) for _, effect, signature
                in other.runs] \
            == [(effect, signature) for _, effect, signature
                in base.runs], name

    peak = traced_peak(lambda: vector.run(EngineConfig(
        checkpoint_interval=interval, chunk_size=PEAK_CHUNK_SIZE)))

    best = min(batched_s, batched_prune_s)
    return {
        "program": name,
        "family": family,
        "plan_runs": len(plan),
        "full_plan_runs": len(full_plan),
        "trace_cycles": golden.cycles,
        "checkpoint_interval": interval,
        "serial_s": serial_s,
        "engine_s": engine_s,
        "batched_s": batched_s,
        "batched_prune_s": batched_prune_s,
        "pruned_runs": pruned.pruned_runs,
        "speedup_engine_vs_serial": serial_s / engine_s,
        "speedup_batched_vs_engine": engine_s / best,
        "peak_chunk_size": PEAK_CHUNK_SIZE,
        "peak_mem_bytes": peak,
        "effects": base.effect_counts(),
    }


#: Ceiling on the tracer's measured overhead (percent): spans are
#: chunk-granularity, so enabling tracing must stay in the noise, and
#: the disabled path (the shared no-op span) is cheaper still.
OBS_OVERHEAD_GATE_PCT = 2.0


def obs_overhead_smoke(name="bitcount", repeats=5):
    """Tracer-enabled vs tracer-disabled wall time on one exhaustive
    smoke row, interleaved min-of-``repeats`` so clock drift cancels."""
    function, threaded, _, regs, golden = prepare(name)
    plan = plan_exhaustive(function, golden).sample(
        TARGET_RUNS[("exhaustive", "smoke")])
    interval = interval_for(golden)
    engine = CampaignEngine(threaded, plan, regs=regs, golden=golden)
    checkpointed = EngineConfig(checkpoint_interval=interval)
    engine.run(checkpointed)        # warm-up
    tracer = obs.tracer()
    disabled_s = enabled_s = math.inf
    for _ in range(repeats):
        _, elapsed = timed(lambda: engine.run(checkpointed))
        disabled_s = min(disabled_s, elapsed)
        tracer.start()
        try:
            _, elapsed = timed(lambda: engine.run(checkpointed))
        finally:
            tracer.stop()
        enabled_s = min(enabled_s, elapsed)
    overhead_pct = (enabled_s / disabled_s - 1.0) * 100.0
    return {
        "program": name,
        "plan_runs": len(plan),
        "repeats": repeats,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "overhead_pct": overhead_pct,
        "gate_pct": OBS_OVERHEAD_GATE_PCT,
        "passed": overhead_pct < OBS_OVERHEAD_GATE_PCT,
    }


def geomean(values):
    return math.exp(sum(math.log(value) for value in values)
                    / len(values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: smoke kernels, small plans, "
                             ">= 2x gate")
    parser.add_argument("--output", default="BENCH_campaign.json",
                        help="path of the JSON report")
    options = parser.parse_args(argv)
    mode = "smoke" if options.smoke else "full"
    programs = SMOKE_PROGRAMS if options.smoke else PROGRAMS

    rows = []
    print(f"{'program':<10} {'family':<11} {'runs':>6} {'cycles':>7} "
          f"{'serial':>9} {'engine':>9} {'batched':>9} {'+prune':>9} "
          f"{'vs engine':>10} {'peak':>9}")
    for family in ("exhaustive", "bec"):
        for name in programs:
            row = bench_row(name, family, mode)
            rows.append(row)
            print(f"{row['program']:<10} {row['family']:<11} "
                  f"{row['plan_runs']:>6} {row['trace_cycles']:>7} "
                  f"{row['serial_s']:>8.2f}s {row['engine_s']:>8.2f}s "
                  f"{row['batched_s']:>8.2f}s "
                  f"{row['batched_prune_s']:>8.2f}s "
                  f"{row['speedup_batched_vs_engine']:>9.2f}x "
                  f"{row['peak_mem_bytes'] / 1024:>7.0f}KB")

    by_family = {}
    for family in ("exhaustive", "bec"):
        by_family[family] = geomean(
            [row["speedup_batched_vs_engine"] for row in rows
             if row["family"] == family])
    gate = GATE[mode]
    gated = by_family["exhaustive"]
    print(f"\ngeomean batched-vs-engine: "
          f"exhaustive {by_family['exhaustive']:.2f}x (gate >= "
          f"{gate:.1f}x, {mode} mode), bec {by_family['bec']:.2f}x "
          f"(reported only: the BEC plan is the non-masked residue, "
          f"so divergent scalar escapes dominate)")

    overhead = obs_overhead_smoke()
    print(f"obs overhead ({overhead['program']}, "
          f"{overhead['plan_runs']} runs, min of "
          f"{overhead['repeats']}): tracer enabled "
          f"{overhead['enabled_s']:.3f}s vs disabled "
          f"{overhead['disabled_s']:.3f}s -> "
          f"{overhead['overhead_pct']:+.2f}% (gate < "
          f"{overhead['gate_pct']:.0f}%) "
          f"{'PASS' if overhead['passed'] else 'FAIL'}")

    report = {
        "mode": mode,
        "gate": {"family": "exhaustive", "threshold": gate,
                 "geomean": gated, "passed": gated >= gate},
        "geomean_batched_vs_engine": by_family,
        "obs_overhead": overhead,
        "rows": rows,
    }
    with open(options.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {options.output}")
    return 0 if gated >= gate and overhead["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
