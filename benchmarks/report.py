"""Cross-PR performance trajectory from the checked-in BENCH_*.json
reports.

Each perf PR gates its headline number in CI and checks in a
machine-readable report produced on a quiet box:

* ``BENCH_interp.json``   — threaded-code execution core (single-run
                            speedup over the reference interpreter);
* ``BENCH_harden.json``   — selective software redundancy (detection
                            coverage vs dynamic overhead);
* ``BENCH_campaign.json`` — lockstep-vectorized campaign core
                            (campaign-level speedup over the
                            checkpointed threaded engine).

Sweep reports (``SWEEP_*.json``, written by ``repro sweep --json``)
are rendered alongside them: grid shape, cache behaviour and the
headline effect counts per cell — the nightly CI job reads its smoke
grid back through this script.

This script renders them all as one trajectory table::

    PYTHONPATH=src python benchmarks/report.py [--dir REPO_ROOT]

Unknown ``BENCH_*.json`` files are listed with their top-level keys, so
future PRs extend the trajectory without editing this script.
"""

import argparse
import json
import os
import sys


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def report_interp(data):
    rows = data.get("programs", [])
    best = max(rows, key=lambda row: row["speedup"]) if rows else None
    print(f"  single-run geomean speedup (threaded vs reference): "
          f"{data['geomean_speedup']:.2f}x "
          f"(gate >= {data.get('gate_geomean', 0):.1f}x, "
          f"{data.get('mode', '?')} mode)")
    if best:
        print(f"  best kernel: {best['program']} "
              f"{best['speedup']:.2f}x "
              f"({best['threaded_ips'] / 1e6:.1f} M instr/s)")


def report_harden(data):
    rows = data.get("programs", [])
    aggregate = data.get("aggregate", {})
    if rows:
        converted = sum(row["full"]["converted"] for row in rows)
        baseline = sum(row["baseline_sdc"] for row in rows)
        print(f"  full duplication: {converted}/{baseline} sampled SDCs "
              f"converted to detected faults")
    coverage = aggregate.get("default_budget_coverage")
    if coverage is not None:
        print(f"  bec @ default budget: {coverage:.0%} of full "
              f"duplication's coverage")
    for key, value in sorted(aggregate.items()):
        if key != "default_budget_coverage" and isinstance(value,
                                                          (int, float)):
            print(f"  {key}: {value:.3g}")


def report_campaign(data):
    gate = data.get("gate", {})
    families = data.get("geomean_batched_vs_engine", {})
    print(f"  campaign geomean speedup (batched vs checkpointed "
          f"threaded engine, {data.get('mode', '?')} mode):")
    for family, value in families.items():
        gated = " [gated]" if family == gate.get("family") else ""
        print(f"    {family:<11} {value:.2f}x{gated}")
    if gate:
        verdict = "PASS" if gate.get("passed") else "FAIL"
        print(f"  gate: >= {gate.get('threshold', 0):.1f}x on "
              f"{gate.get('family')} -> {verdict}")
    rows = [row for row in data.get("rows", [])
            if row["family"] == "exhaustive"]
    if rows:
        best = max(rows, key=lambda row: row["speedup_batched_vs_engine"])
        print(f"  best kernel: {best['program']} "
              f"{best['speedup_batched_vs_engine']:.2f}x "
              f"({best['plan_runs']} runs over {best['trace_cycles']} "
              f"cycles)")
    overhead = data.get("obs_overhead")
    if overhead:
        verdict = "PASS" if overhead.get("passed") else "FAIL"
        print(f"  obs tracer overhead ({overhead.get('program', '?')}): "
              f"{overhead.get('overhead_pct', 0.0):+.2f}% "
              f"(gate < {overhead.get('gate_pct', 0.0):.0f}%) "
              f"-> {verdict}")


def report_sweep(data):
    totals = data.get("totals", {})
    print(f"  spec {data.get('spec', '?')}: {totals.get('cells', 0)} "
          f"cells ({totals.get('cells_run', 0)} executed, "
          f"{totals.get('cells_cached', 0)} from cache), "
          f"{totals.get('simulator_runs', 0)} simulator runs in "
          f"{totals.get('wall_time', 0.0):.2f}s")
    stats = data.get("store_stats", {})
    if stats:
        print(f"  store: {stats.get('results', 0)} archived results "
              f"({stats.get('archived_runs', 0)} runs, "
              f"{stats.get('archived_wall_time', 0.0):.1f}s of "
              f"simulation banked)")
    metrics = data.get("metrics", {})
    if metrics:
        hits = metrics.get("store.hits", 0)
        misses = metrics.get("store.misses", 0)
        lookups = hits + misses
        hit_rate = (f"{hits / lookups:.0%} cache hit rate "
                    f"({hits}/{lookups})" if lookups else "no lookups")
        print(f"  metrics: {hit_rate}, "
              f"{metrics.get('engine.runs_executed', 0)} runs executed, "
              f"{metrics.get('engine.recoveries', 0)} worker recoveries")
    cells = data.get("cells", [])
    for cell in cells[:8]:
        effects = cell.get("effects", {})
        budget = cell.get("budget")
        budget = "" if budget is None else f" budget={budget:.2f}"
        print(f"    {cell.get('kernel', '?')} mode={cell.get('mode')} "
              f"harden={cell.get('harden')}{budget} "
              f"core={cell.get('core')}: {cell.get('plan_runs', 0)} "
              f"runs, sdc={effects.get('sdc', 0)} "
              f"detected={effects.get('detected', 0)} "
              f"[{'hit' if cell.get('cached') else 'run'}]")
    if len(cells) > 8:
        print(f"    ... and {len(cells) - 8} more cells")


#: filename -> (PR label, headline, renderer)
KNOWN = {
    "BENCH_interp.json": ("PR 2", "threaded-code execution core",
                          report_interp),
    "BENCH_harden.json": ("PR 3", "BEC-guided selective redundancy",
                          report_harden),
    "BENCH_campaign.json": ("PR 4", "lockstep-vectorized campaign core",
                            report_campaign),
}

#: Sweep reports are named by their spec, so they are matched by
#: prefix rather than listed in KNOWN.
SWEEP_PREFIX = "SWEEP_"


def _renderer_for(name):
    """(PR label, headline, renderer) for a report file, or Nones."""
    if name in KNOWN:
        return KNOWN[name]
    if name.startswith(SWEEP_PREFIX):
        return ("PR 5", "content-addressed campaign store sweep",
                report_sweep)
    return (None, None, None)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", default=None,
                        help="directory holding BENCH_*.json / "
                             "SWEEP_*.json (default: the repository "
                             "root above this script)")
    options = parser.parse_args(argv)
    root = options.dir or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    names = sorted(name for name in os.listdir(root)
                   if (name.startswith("BENCH_")
                       or name.startswith(SWEEP_PREFIX))
                   and name.endswith(".json"))
    if not names:
        print(f"no BENCH_*.json / SWEEP_*.json reports under {root}",
              file=sys.stderr)
        return 1
    print(f"perf trajectory ({len(names)} reports under {root}):\n")
    ordered = sorted(
        names, key=lambda name: (_renderer_for(name)[0] or "PR ?", name))
    for name in ordered:
        data = _load(os.path.join(root, name))
        label, headline, renderer = _renderer_for(name)
        if renderer is None:
            print(f"{name}: (unrecognized schema; keys: "
                  f"{', '.join(sorted(data)[:8])})")
        else:
            print(f"{label} · {headline} ({name})")
            renderer(data)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
