"""Interpreter-core benchmark: threaded code vs the reference interpreter.

Measures single-run wall-clock for both execution cores on the paper's
evaluation kernels (campaign-level speedups are ``bench_campaign.py``'s
job).  Emits a machine-readable ``BENCH_interp.json`` so CI can track
the perf trajectory:

* ``programs``   — per-benchmark cycles, seconds and instructions/sec
                   for each core, and the per-program speedup;
* ``geomean_speedup`` — the gate: the threaded core must keep a >= 3x
                   geometric-mean single-run speedup (full mode only).

Run standalone (writes ``BENCH_interp.json`` next to this file's
working directory and prints a table)::

    PYTHONPATH=src python benchmarks/bench_interp.py
    PYTHONPATH=src python benchmarks/bench_interp.py --smoke  # CI mode

Smoke mode shrinks repetitions so the whole script finishes in
seconds; it still asserts trace parity but does not gate on the speedup
(shared CI runners are too noisy for that).
"""

import argparse
import json
import math
import time

from repro.bench.programs import compile_benchmark, get_benchmark
from repro.fi.machine import Machine

#: The single-run subjects (paper §VI kernels, presentation order).
PROGRAMS = ("bitcount", "dijkstra", "CRC32", "AES", "RSA", "SHA")

#: Minimum measured time per core (seconds); repetitions adapt to it.
MIN_MEASURE = {"full": 0.5, "smoke": 0.05}

GATE_GEOMEAN = 3.0


def prepare(name):
    benchmark = get_benchmark(name)
    program = compile_benchmark(name)
    regs = program.initial_regs(*benchmark.args)
    machines = {
        "reference": Machine(program.function, core="reference",
                             memory_image=program.memory_image),
        "threaded": Machine(program.function,
                            memory_image=program.memory_image),
    }
    return machines, regs


def measure(machine, regs, min_seconds):
    """Best-of-repetitions single-run wall clock (adaptive count)."""
    trace = machine.run(regs=regs)          # warm-up + result
    start = time.perf_counter()
    machine.run(regs=regs)
    once = time.perf_counter() - start
    reps = max(1, int(min_seconds / max(once, 1e-9)))
    best = once
    for _ in range(reps):
        start = time.perf_counter()
        machine.run(regs=regs)
        best = min(best, time.perf_counter() - start)
    return trace, best


def bench_single_runs(mode):
    rows = []
    for name in PROGRAMS:
        machines, regs = prepare(name)
        reference_trace, reference_s = measure(machines["reference"], regs,
                                               MIN_MEASURE[mode])
        threaded_trace, threaded_s = measure(machines["threaded"], regs,
                                             MIN_MEASURE[mode])
        assert threaded_trace.key() == reference_trace.key(), name
        assert threaded_trace.cycles == reference_trace.cycles, name
        cycles = threaded_trace.cycles
        rows.append({
            "program": name,
            "cycles": cycles,
            "reference_s": reference_s,
            "threaded_s": threaded_s,
            "reference_ips": cycles / reference_s,
            "threaded_ips": cycles / threaded_s,
            "speedup": reference_s / threaded_s,
        })
    return rows


def geomean(values):
    return math.exp(sum(math.log(value) for value in values) / len(values))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: short measurements, no speedup gate")
    parser.add_argument("--output", default="BENCH_interp.json",
                        help="path of the JSON report")
    options = parser.parse_args(argv)
    mode = "smoke" if options.smoke else "full"
    output = options.output

    rows = bench_single_runs(mode)
    gate = geomean([row["speedup"] for row in rows])

    print(f"{'program':<10} {'cycles':>7} {'reference':>11} "
          f"{'threaded':>11} {'Minstr/s':>9} {'speedup':>8}")
    for row in rows:
        print(f"{row['program']:<10} {row['cycles']:>7} "
              f"{row['reference_s'] * 1e3:>9.2f}ms "
              f"{row['threaded_s'] * 1e3:>9.2f}ms "
              f"{row['threaded_ips'] / 1e6:>9.2f} "
              f"{row['speedup']:>7.2f}x")
    print(f"\ngeomean single-run speedup: {gate:.2f}x "
          f"(gate: >= {GATE_GEOMEAN:.1f}x, {mode} mode)")

    report = {
        "mode": mode,
        "geomean_speedup": gate,
        "gate_geomean": GATE_GEOMEAN,
        "programs": rows,
    }
    with open(output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {output}")
    if mode == "full" and gate < GATE_GEOMEAN:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
