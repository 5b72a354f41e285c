"""Bench for the memory-cell fault-space extension (paper §II).

Measures memory-side accounting and the pruned campaign on the
table-driven kernels (the ones whose loads dominate): how much of the
memory inject-on-read campaign does BEC prune, and does the pruned
campaign keep every distinguishable outcome?
"""

import pytest

from repro.fi.campaign import EFFECT_MASKED
from repro.fi.engine import CampaignEngine
from repro.fi.memory import (memory_fault_accounting, plan_memory_bec,
                             plan_memory_inject_on_read)

#: Benchmarks with a meaningful memory fault space (table lookups).
MEMORY_BENCHMARKS = ("CRC32", "AES", "dijkstra")


@pytest.mark.parametrize("name", MEMORY_BENCHMARKS)
def test_memory_accounting(benchmark, prepared, name):
    from repro.bec.analysis import run_bec

    run = prepared(name)
    bec = run_bec(run.function)

    def account():
        return memory_fault_accounting(run.function, run.golden, bec)

    accounting = benchmark.pedantic(account, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "live_in_values": accounting["live_in_values"],
        "live_in_bits": accounting["live_in_bits"],
        "pruned_percent": round(accounting["pruned_percent"], 2),
    })
    assert accounting["live_in_values"] > 0
    assert accounting["live_in_bits"] <= accounting["live_in_values"]


def test_memory_campaign_pruning_keeps_outcomes(benchmark, prepared):
    """On a sliced CRC32 trace the pruned memory campaign must observe
    every distinguishable non-golden trace the full campaign finds."""
    from repro.bec.analysis import run_bec

    run = prepared("CRC32")
    bec = run_bec(run.function)
    full_plan = plan_memory_inject_on_read(run.function, run.golden)[:400]
    covered = {(p.injection.cycle, p.injection.address, p.injection.bit)
               for p in full_plan}
    pruned_plan = [
        p for p in plan_memory_bec(run.function, run.golden, bec)
        if (p.injection.cycle, p.injection.address, p.injection.bit)
        in covered]

    def campaigns():
        full = CampaignEngine(run.machine, full_plan, regs=run.regs,
                              golden=run.golden).run()
        pruned = CampaignEngine(run.machine, pruned_plan, regs=run.regs,
                                golden=run.golden).run()
        return full, pruned

    full, pruned = benchmark.pedantic(campaigns, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "full_runs": len(full_plan),
        "pruned_runs": len(pruned_plan),
    })
    full_signatures = {s for _, e, s in full.runs if e != EFFECT_MASKED}
    pruned_signatures = {s for _, e, s in pruned.runs
                         if e != EFFECT_MASKED}
    assert pruned_signatures <= full_signatures
    assert len(pruned_plan) <= len(full_plan)