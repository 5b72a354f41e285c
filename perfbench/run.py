"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest

Run from the root of a source checkout; the program is imported from
``src/``.  One run:

1. sets up ``SETUP_REPEATS`` times (more when that takes under
   ``SETUP_SECONDS``), each a fresh interpreter that imports the
   program's entry points and builds the workloads' frozen specs;
   ``setup_s`` is the median;
2. runs timed passes, tracing off, for ``--seconds`` (at least
   ``MIN_PASSES``); ``wall_s`` is the median pass and ``peak_rss_mb``
   the peak resident memory of this process, which runs every pass
   (sweeps use one engine worker, so nothing is forked);
3. with ``--trace 1``, runs one more pass with every layer wrapped
   (see ``ledger.py``) and reports the per-layer metrics instead;
4. checks every pass's outputs, the traced one included.

``--seed`` only draws the sample of runs re-simulated on the reference
core; the program's inputs are fixed.  The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` operations
(a sweep cell, or a table row), and the metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 3
SETUP_SECONDS = 3
MIN_PASSES = 3
RUN_SECONDS = 25

#: End-to-end metrics: name, unit, better, bound (the share of the
#: parent's median by which a change may worsen it).
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)

SETUP_CODE = "import sys; sys.path[:0] = sys.argv[1:3]; import workloads"


def manifest():
    """The ``BENCHMARK.json`` document."""
    from workloads import WORKLOADS
    from ledger import LAYER_METRICS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": workload.name, "why": workload.why}
                      for workload in WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, *_ in LAYER_METRICS],
    }


def high_percentile(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or ``None`` with fewer than eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def setup():
    """Set up at least ``SETUP_REPEATS`` times and for at least
    ``SETUP_SECONDS``; returns the durations."""
    durations = []
    while len(durations) < SETUP_REPEATS or \
            sum(durations) < SETUP_SECONDS:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, HERE],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        durations.append(time.perf_counter() - start)
    return durations


def print_ledger(ledger, layer_metrics, workload, untraced):
    from ledger import LAYER_METRICS

    print(f"ledger {workload.name}: traced pass {ledger.wall:.3f} s, "
          f"untraced median {untraced:.3f} s")
    print(f"  {'layer':<22}{'calls':>7}{'total_s':>10}{'self_s':>10}"
          f"{'share':>8}")
    layers = ledger.layers()
    for name, row in sorted(layers.items(), key=lambda item:
                            -item[1]["self"]):
        label = "unattributed" if name == "pass" else name
        print(f"  {label:<22}{row['calls']:>7}{row['total']:>10.3f}"
              f"{row['self']:>10.3f}{row['self'] / ledger.wall:>8.1%}")
    lanes = ledger.lanes_by_outcome()
    if lanes:
        print("  batch.lanes_retired by outcome: " + ", ".join(
            f"{outcome}={count}" for outcome, count in lanes.items()))
    unattributed = layer_metrics["unattributed_ratio"][0]
    if unattributed > 0.10:
        print(f"  WARNING: {unattributed:.1%} of the traced pass is in no "
              f"layer span (the ledger should name at least 90%)")
    print(f"  {'metric':<22}{'value':>14} {'unit':<6} moves -> on")
    for name, _unit, _better, moves, on in LAYER_METRICS:
        value, unit = layer_metrics[name]
        print(f"  {name:<22}{value:>14.6g} {unit:<6} {moves} -> {on}")


def run(workload, args, work):
    from ledger import Ledger
    from workloads import clear_program_caches

    setups = setup()
    workload.work = work
    results = []
    start = time.perf_counter()
    while len(results) < MIN_PASSES or \
            time.perf_counter() - start < args.seconds:
        clear_program_caches()
        results.append(workload.run_pass(len(results)))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [result["wall"] for result in results]
    wall = statistics.median(walls)
    ledger = None
    if args.trace:
        clear_program_caches()
        with Ledger(len(results)) as ledger:
            results.append(workload.run_pass(len(results)))
        ledger.export_chrome(
            os.path.join(OUT, f"{workload.name}-trace.json"))
    checks = workload.check(results, args.seed)
    attempted = workload.ops_per_pass * len(results)
    failed = len(checks.failed)

    print(f"workload {workload.name}: seed {args.seed}, "
          f"{len(walls)} timed passes, trace {'on' if args.trace else 'off'}")
    tail = high_percentile(walls)
    tail_text = f"p{tail[0]:.0f} {tail[1]:.3f} s" if tail \
        else "no percentile with 10 passes beyond it"
    print(f"  wall_s       {wall:.4f} s median of {len(walls)} passes "
          f"(max {max(walls):.4f} s; {tail_text})")
    print("  passes       " + " ".join(f"{value:.3f}" for value in walls))
    print(f"  setup_s      {statistics.median(setups):.4f} s median of "
          f"{len(setups)} set-ups")
    print(f"  peak_rss_mb  {peak_mb:.1f} MiB")
    print(f"  ops_failed_ratio {failed}/{attempted} = "
          f"{failed / attempted:.4f}")
    for reason in checks.reasons:
        print(f"  FAILED: {reason}")
    if ledger is not None:
        metrics = ledger.metrics(workload.used_entries(results[-1]), wall)
        print_ledger(ledger, metrics, workload, wall)
    else:
        metrics = {"wall_s": (wall, "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (peak_mb, "MiB")}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}",
              file=sys.stderr)
        return 2
    # The program's environment knobs (REPRO_CORE, REPRO_STORE, ...)
    # would change what a workload runs; the inputs are the specs alone.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        return run(WORKLOADS[args.workload], args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
