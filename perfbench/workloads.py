"""The benchmark's workloads: frozen inputs, one timed pass, checks.

Each workload drives the program through its public entry points only
(``repro.store.sweep.run_sweep`` on a spec plus a ``ResultStore``, and
``repro.experiments.table3/table4.run_experiment``).  Every pass starts
from cold in-process caches, as a fresh ``repro sweep`` or
``python -m repro.experiments`` invocation would.

The grids are frozen copies, so editing ``.github/sweeps/nightly.toml``
cannot move the benchmark.  They are cut down from the grids they
stand for: one pass of the full nightly grid takes ~24 s and the
uncapped three-kernel campaign ~27 s on a 2-CPU box, too long for a run
that should take well under a minute and still time several passes.
Each cut keeps the layer mix of the full grid (see ``why``).

Sweeps run with one engine worker, in the measuring process.  On a
host with two shared CPUs, two forked workers plus the parent measured
the scheduler more than the program: run-to-run spread of ``wall_s``
reached 40% of the median, against 2-3% serial in a quiet period.
"""

import gc
import json
import os
import random
import time

from repro.bench import programs
from repro.bec.analysis import run_bec
from repro.experiments import common, table3, table4
from repro.fi.campaign import classify_effect
from repro.fi.engine import CampaignEngine
from repro.fi.machine import Machine
from repro.harden import harden
from repro.store import ResultStore
from repro.store.spec import parse_spec
from repro.store.sweep import run_sweep

#: The nightly grid (bitcount column only) of ``nightly.toml``.
NIGHTLY = {
    "grid": {"kernels": ["bitcount"], "modes": ["bec"],
             "harden": ["none", "bec"], "budgets": [0.3],
             "cores": ["threaded", "batched"]},
    "engine": {"workers": 1, "checkpoint_interval": 64, "max_runs": 300},
}

#: An uncapped BEC campaign of the shortest-trace kernel.
FULL_CAMPAIGN = {
    "grid": {"kernels": ["RSA"], "modes": ["bec"], "harden": ["none"],
             "cores": ["threaded", "batched"]},
    "engine": {"workers": 1},
}

#: Per-cell results of the uncapped RSA campaign at the commit that
#: defined the benchmark.  ``plan_runs`` is Table III's "Live in bits".
FULL_CAMPAIGN_PINS = {
    "RSA": {"plan_runs": 17832, "distinct_traces": 7068,
            "effects": {"masked": 1952, "sdc": 15739, "detected": 0,
                        "trap": 128, "timeout": 13,
                        "benign-divergence": 0}},
}

#: Kernels of the ``paper-tables`` workload (the four cheapest to
#: analyse; together they still spend most time in scheduling,
#: accounting and the live-fault-site count).
PAPER_KERNELS = ("adpcm_enc", "adpcm_dec", "RSA", "SHA")

#: Table III and IV rows as printed in EXPERIMENTS.md.
TABLE3_PINS = {
    "adpcm_enc": (38496, 37139, 27, 1330, 3.53),
    "adpcm_dec": (31936, 25965, 2347, 3624, 18.70),
    "RSA": (22080, 17832, 69, 4179, 19.24),
    "SHA": (165216, 124480, 3425, 37311, 24.66),
}
TABLE4_PINS = {
    "adpcm_enc": (840576, 241957, 245541, 101.48),
    "adpcm_dec": (893568, 195769, 200233, 102.28),
    "RSA": (443520, 140247, 141304, 100.75),
    "SHA": (4013280, 1454683, 1678048, 115.35),
}

#: Runs per executed cell re-simulated on the reference core.
ORACLE_SAMPLE = 24


def clear_program_caches():
    """Drop the per-process caches a fresh invocation starts without."""
    programs._compiled_cache.clear()
    common._cache.clear()
    gc.collect()


class Checks:
    """Failed operations of one benchmark run, with the reasons."""

    def __init__(self, ops_per_pass, passes):
        self.ops_per_pass = ops_per_pass
        self.passes = passes
        self.failed = set()          # (pass index, op index)
        self.reasons = []

    def fail(self, reason, op=None, pass_index=None):
        """Mark *op* (every op when ``None``) of *pass_index* (every
        pass when ``None``) as failed."""
        self.reasons.append(reason)
        passes = range(self.passes) if pass_index is None \
            else [pass_index]
        ops = range(self.ops_per_pass) if op is None else [op]
        self.failed.update((p, o) for p in passes for o in ops)

    def expect(self, condition, reason, op=None, pass_index=None):
        if not condition:
            self.fail(reason, op=op, pass_index=pass_index)


def _cell_rows(report):
    """What a sweep pass produced, minus timing: one JSON-shaped row
    per cell (so rows saved by a set-up process compare equal)."""
    return json.loads(json.dumps(
        [{"cell": outcome.cell, "key": outcome.key,
          "cached": outcome.cached, "plan_runs": outcome.plan_runs,
          "effects": outcome.effects,
          "distinct_traces": outcome.distinct_traces,
          "golden_cycles": outcome.golden_cycles, "error": outcome.error}
         for outcome in report.outcomes]))


def _content(row):
    """A row without its ``cached`` flag: key and aggregates only."""
    return {name: value for name, value in row.items() if name != "cached"}


class SweepWorkload:
    """A sweep of a frozen grid into an empty store (the write path).

    With ``rerun=True`` the pass then sweeps the same grid again against
    that store, as a second ``repro sweep`` invocation would: cold
    in-process caches, every cell served from the store (the read path,
    zero simulator runs).  Ops are the cells of each sweep, in order.
    """

    def __init__(self, name, why, spec, rerun=False, pins=None):
        self.name = name
        self.why = why
        self.spec = parse_spec(spec, name=name)
        self.sweeps = 2 if rerun else 1
        self.cells = len(self.spec.cells())
        self.ops_per_pass = self.sweeps * self.cells
        self.pins = pins or {}
        self.work = None            # the run's scratch directory

    def run_pass(self, index):
        """One timed pass; returns what the checks compare.  The cache
        clear between the sweeps is not timed."""
        path = os.path.join(self.work, f"pass-{index}.db")
        wall, rows, simulator_runs = 0.0, [], []
        for sweep in range(self.sweeps):
            if sweep:
                clear_program_caches()
            start = time.perf_counter()
            with ResultStore(path) as store:
                report = run_sweep(self.spec, store)
            wall += time.perf_counter() - start
            rows += _cell_rows(report)
            simulator_runs.append(report.simulator_runs)
        return {"wall": wall, "path": path, "rows": rows,
                "simulator_runs": simulator_runs}

    def used_entries(self, result):
        """Plan entries the pass keyed or executed, counted once per
        plan of each sweep (the threaded and batched cells of a program
        share one)."""
        plans = {(op // self.cells, tuple(row["cell"][:4])): row["plan_runs"]
                 for op, row in enumerate(result["rows"])}
        return sum(plans.values())

    def check(self, results, seed):
        """Correctness of *results* (one per pass, in order)."""
        checks = Checks(self.ops_per_pass, len(results))
        first = results[0]["rows"]
        for index, result in enumerate(results):
            rows = result["rows"]
            for op, row in enumerate(rows):
                cell, rerun = row["cell"], op >= self.cells
                checks.expect(row["error"] is None,
                              f"cell {cell}: {row['error']}", op, index)
                checks.expect(row["cached"] == rerun,
                              f"cell {cell}: cached={row['cached']}", op,
                              index)
                checks.expect(_content(row) == _content(first[op]),
                              f"pass {index} cell {cell} differs from "
                              f"pass 0", op, index)
                checks.expect(_content(row) == _content(
                    rows[op % self.cells]), f"pass {index}: re-run cell "
                    f"{cell} differs from the first sweep", op, index)
            for sweep, runs in enumerate(result["simulator_runs"]):
                expected = 0 if sweep else \
                    sum(row["plan_runs"] for row in rows[:self.cells])
                checks.expect(runs == expected,
                              f"pass {index} sweep {sweep}: {runs} "
                              f"simulator runs, expected {expected}",
                              pass_index=index)
        cold = first[:self.cells]
        for op, row in enumerate(cold):
            pin = self.pins.get(row["cell"][0])
            if pin is not None:
                got = {name: row[name] for name in pin}
                checks.expect(got == pin, f"cell {row['cell']}: {got} != "
                              f"pinned {pin}", op)
        self._check_parity(checks, cold)
        self._check_programs(checks, cold, results[-1]["path"], seed)
        return checks

    def _check_parity(self, checks, rows):
        """Threaded and batched cells of one program agree on effect
        counts and distinct traces, under distinct content keys."""
        by_variant = {}
        for op, row in enumerate(rows):
            by_variant.setdefault(tuple(row["cell"][:4]),
                                  []).append((op, row))
        for variant, cells in by_variant.items():
            aggregates = [(row["effects"], row["distinct_traces"])
                          for _, row in cells]
            keys = {row["key"] for _, row in cells}
            for op, _ in cells:
                checks.expect(aggregates.count(aggregates[0]) == len(cells),
                              f"{variant}: cores disagree", op)
                checks.expect(len(keys) == len(cells),
                              f"{variant}: cores share a key", op)

    def _check_programs(self, checks, rows, store_path, seed):
        """Golden outputs against the pure-Python reference, and a
        seeded sample of every cell's runs against the reference core."""
        variants = {}
        with ResultStore(store_path) as store:
            for op, row in enumerate(rows):
                kernel, _mode, policy, budget, _core = row["cell"]
                key = (kernel, policy, budget)
                if key not in variants:
                    variants[key] = _variant(kernel, policy, budget)
                variant = variants[key]
                expected = programs.get_benchmark(kernel).reference()
                checks.expect(variant["golden"].outputs == expected,
                              f"{key}: golden outputs differ from the "
                              f"reference", op)
                checks.expect(variant["golden"].cycles
                              == row["golden_cycles"],
                              f"{key}: golden cycles differ from the "
                              f"sweep's", op)
                for reason in _oracle(store, row["key"], variant, seed):
                    checks.fail(f"cell {row['cell']}: {reason}", op)


def _variant(kernel, policy, budget):
    """A kernel's (possibly hardened) program and golden trace, built
    the way a sweep builds a cell's variant."""
    program = programs.compile_benchmark(kernel)
    regs = program.initial_regs(*programs.get_benchmark(kernel).args)
    function = program.function
    machine = Machine(function, memory_image=program.memory_image)
    golden = machine.run(regs=regs)
    if policy != "none":
        function = harden(function, policy, budget=budget, golden=golden,
                          bec=run_bec(function)).function
        golden = Machine(function,
                         memory_image=program.memory_image).run(regs=regs)
    return {"function": function, "memory_image": program.memory_image,
            "regs": regs, "golden": golden}


def _oracle(store, key, variant, seed):
    """Re-simulate a seeded sample of the archived runs of *key* on the
    reference core; yields one reason per disagreement."""
    result = store.get(key)
    if result is None:
        yield "not in the store"
        return
    runs = result.runs
    sample = random.Random(f"{seed}:{key}").sample(
        range(len(runs)), min(ORACLE_SAMPLE, len(runs)))
    machine = Machine(variant["function"],
                      memory_image=variant["memory_image"],
                      core="reference")
    golden = variant["golden"]
    max_cycles = CampaignEngine(machine, [], regs=variant["regs"],
                                golden=golden).max_cycles
    for index in sorted(sample):
        planned, effect, signature = runs[index][:3]
        trace = machine.run(regs=variant["regs"],
                            injection=planned.injection,
                            max_cycles=max_cycles)
        if (classify_effect(golden, trace), trace.signature()) != \
                (effect, signature):
            yield f"run {index} disagrees with the reference core"


class PaperTables:
    """Table III then Table IV over :data:`PAPER_KERNELS`, no store."""

    def __init__(self, name, why):
        self.name = name
        self.why = why
        self.ops_per_pass = 2 * len(PAPER_KERNELS)
        self.work = None

    def run_pass(self, index):
        start = time.perf_counter()
        rows3 = table3.run_experiment(list(PAPER_KERNELS))["rows"]
        rows4 = table4.run_experiment(list(PAPER_KERNELS))["rows"]
        wall = time.perf_counter() - start
        return {"wall": wall, "rows": rows3 + rows4}

    def used_entries(self, result):
        return 0

    def check(self, results, seed):
        checks = Checks(self.ops_per_pass, len(results))
        first = results[0]["rows"]
        for index, result in enumerate(results):
            for op, (row, base) in enumerate(zip(result["rows"], first)):
                checks.expect(row == base, f"pass {index} row {op} "
                              f"differs from pass 0", op, index)
        for op, row in enumerate(first):
            name = row["benchmark"]
            if op < len(PAPER_KERNELS):
                got = (row["live_in_values"], row["live_in_bits"],
                       row["masked_bits"], row["inferrable_bits"],
                       round(row["pruned_percent"], 2))
                pin = TABLE3_PINS[name]
            else:
                got = (row["total_fault_space"], row["best_reliability"],
                       row["worst_reliability"],
                       round(row["worst_over_best_percent"], 2))
                pin = TABLE4_PINS[name]
            checks.expect(got == pin, f"{name}: {got} != pinned {pin}", op)
            run = common.benchmark_run(name)
            checks.expect(run.golden.outputs == run.benchmark.reference(),
                          f"{name}: golden outputs differ from the "
                          f"reference", op)
        return checks


WORKLOADS = {
    workload.name: workload for workload in (
        SweepWorkload(
            "nightly",
            "Nightly grid into an empty store, then re-run against it: "
            "CI's first pass and its resubmit, the store's write and "
            "read paths; planning dominates, every sweep layer works.",
            NIGHTLY, rerun=True),
        SweepWorkload(
            "full-campaign",
            "Uncapped BEC campaign, threaded and batched cores: the "
            "engine is ~90% of it, so core work shows here and "
            "planning work does not.",
            FULL_CAMPAIGN, pins=FULL_CAMPAIGN_PINS),
        PaperTables(
            "paper-tables",
            "Tables III and IV with no store: static analysis, fault "
            "accounting and scheduling, the only workload where sched "
            "and fi.accounting work."),
    )
}
