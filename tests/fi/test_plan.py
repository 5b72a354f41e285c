"""Tests for the lazy fault plans (repro.fi.campaign.Plan) and the
compiled BEC walk they share with the Table III accounting."""

import tracemalloc

import pytest

from repro.bec.intra import port_flow
from repro.bench.motivating import count_years
from repro.bench.programs import benchmark_names
from repro.bec.analysis import run_bec
from repro.experiments.common import benchmark_run
from repro.fi.accounting import (fault_injection_accounting,
                                 iter_bit_instances)
from repro.fi.campaign import (EFFECT_CLASSES, SubPlan, plan_bec,
                               plan_exhaustive, plan_inject_on_read)
from repro.fi.config import EngineConfig
from repro.fi.engine import CampaignEngine
from repro.fi.machine import Machine
from repro.fi.sampling import effect_intervals
from repro.harden import harden
from repro.minic.compiler import compile_source


def legacy_walk(function, trace, bec):
    """The per-bit chain walk the compiled tables replaced, kept as the
    oracle: ``(emitted rows, Table III row)``.  Every cycle re-derives
    each window bit's class and pairs chains through a dict keyed by
    ``(reg, bit)``."""
    liveness = bec.liveness
    width = function.bit_width
    rules = getattr(bec.coalescing, "rules", None)
    flows = {}
    pending = {}
    groups = 0
    rows = []
    live_windows = masked = 0
    for cycle, pp in enumerate(trace.executed):
        instruction = function.instruction_at(pp)
        live_after = liveness.live_after(pp)
        live_windows += len(liveness.live_windows(pp))
        if pp not in flows:
            before = {reg: bec.bit_values.before(pp, reg)
                      for reg in instruction.data_reads()}
            flows[pp] = port_flow(instruction, before, width, rules=rules) \
                if bec.bit_values.is_executable(pp) else {}
        incoming = {}
        for reg in instruction.data_reads():
            for bit in range(width):
                chain = pending.get((reg, bit))
                if chain is not None:
                    for target in flows[pp].get((reg, bit), ((), 0))[0]:
                        incoming.setdefault(target, chain)
        for reg in instruction.data_accesses():
            for bit in range(width):
                pending.pop((reg, bit), None)
        opened = {}
        for reg in instruction.data_accesses():
            if reg not in live_after:
                continue
            for bit in range(width):
                rep = bec.class_of(pp, reg, bit)
                if rep == 0:
                    masked += 1
                    continue
                arrived = incoming.get((reg, bit))
                if arrived is not None and arrived[0] == rep:
                    group = arrived[1]
                elif rep in opened:
                    group = opened[rep]
                else:
                    group = groups
                    groups += 1
                    rows.append((cycle, reg, bit, pp, rep, group))
                opened.setdefault(rep, group)
                pending[(reg, bit)] = (rep, group)
    values = live_windows * width
    return rows, {
        "live_in_values": values, "live_in_bits": len(rows),
        "masked_bits": masked,
        "inferrable_bits": values - len(rows) - masked,
        "pruned_percent": 100.0 * (values - len(rows)) / values
        if values else 0.0}


def _variant(name, policy):
    """(function, golden, bec) of a registry kernel, hardened or not."""
    run = benchmark_run(name)
    if policy == "none":
        return run.function, run.golden, run.bec
    function = harden(run.function, policy, budget=0.3, golden=run.golden,
                      bec=run.bec).function
    golden = Machine(function, memory_image=run.program.memory_image).run(
        regs=run.regs)
    return function, golden, run_bec(function)


class TestCompiledWalk:
    """The table walk reproduces the per-bit walk exactly."""

    @pytest.mark.parametrize("policy", ["none", "bec"])
    @pytest.mark.parametrize("name", benchmark_names())
    def test_rows_and_accounting_match_the_legacy_walk(self, name,
                                                        policy):
        function, golden, bec = _variant(name, policy)
        rows, accounting = legacy_walk(function, golden, bec)
        plan = plan_bec(function, golden, bec)
        assert list(plan.rows()) == rows
        assert [tuple(plan.row(index)) for index in
                range(0, len(plan), 331)] == rows[::331]
        assert plan.accounting() == accounting
        assert fault_injection_accounting(function, golden, bec) \
            == accounting

    def test_instances_agree_with_the_plan(self):
        function, golden, bec = _variant("RSA", "bec")
        emitted = [(instance.cycle, instance.reg, instance.bit,
                    instance.pp, instance.rep, instance.epoch)
                   for instance in iter_bit_instances(function, golden,
                                                      bec)
                   if instance.emit]
        assert emitted == list(plan_bec(function, golden, bec).rows())


@pytest.fixture(scope="module")
def small():
    function = count_years()
    golden = Machine(function, memory_size=256).run()
    return function, golden, run_bec(function)


class TestPlanSequence:
    def test_indexing_matches_iteration(self, small):
        function, golden, bec = small
        for plan in (plan_exhaustive(function, golden),
                     plan_inject_on_read(function, golden),
                     plan_bec(function, golden, bec)):
            entries = list(plan)
            assert len(entries) == len(plan)
            assert [plan[index] for index in range(len(plan))] == entries
            assert plan[-1] == entries[-1]
            assert plan[3:40:7] == entries[3:40:7]
            assert plan[::-5] == entries[::-5]
            with pytest.raises(IndexError):
                plan[len(plan)]

    def test_entries_are_in_cycle_order(self, small):
        function, golden, bec = small
        for plan in (plan_exhaustive(function, golden),
                     plan_inject_on_read(function, golden),
                     plan_bec(function, golden, bec)):
            cycles = [row[0] for row in plan.rows()]
            assert cycles == sorted(cycles)

    def test_bec_epochs_are_plan_indices(self, small):
        function, golden, bec = small
        plan = plan_bec(function, golden, bec)
        assert [planned.epoch for planned in plan] == list(range(len(plan)))


class TestSample:
    def test_whole_plan_when_the_cap_covers_it(self, small):
        function, golden, bec = small
        plan = plan_bec(function, golden, bec)
        assert plan.sample(len(plan)) is plan
        assert plan.sample(10 ** 6) is plan
        assert plan.sample_fraction == 1.0

    def test_one_entry_per_stratum(self, small):
        function, golden, _ = small
        plan = plan_exhaustive(function, golden)
        sample = plan.sample(50)
        assert isinstance(sample, SubPlan) and len(sample) == 50
        assert sample.sample_fraction == 50 / len(plan)
        for stratum, index in enumerate(sample.indices):
            assert stratum * len(plan) // 50 <= index \
                < (stratum + 1) * len(plan) // 50
        assert list(sample) == [plan[index] for index in sample.indices]

    def test_deterministic(self, small):
        function, golden, _ = small
        plan = plan_inject_on_read(function, golden)
        assert plan.sample(40).indices == plan.sample(40).indices

    def test_spans_the_whole_trace(self):
        run = benchmark_run("bitcount")
        sample = plan_bec(run.function, run.golden, run.bec).sample(300)
        cycles = [planned.injection.cycle for planned in sample]
        assert min(cycles) < 0.05 * run.golden.cycles
        assert max(cycles) >= 0.95 * run.golden.cycles

    def test_subsets_of_a_sample_stay_flat(self, small):
        function, golden, _ = small
        plan = plan_exhaustive(function, golden)
        sample = plan.sample(60)
        assert sample[10:20].parent is plan
        assert sample[10:20] == list(sample)[10:20]
        assert sample.sample(6).parent is plan

    def test_sample_peaks_at_the_sample_not_the_plan(self):
        """CRC32's exhaustive plan has 13.4M entries (~2 GB as a list);
        planning and digesting a 3,001-run sample of it stays small."""
        from repro.store.keys import plan_rows

        run = benchmark_run("CRC32")
        tracemalloc.start()
        try:
            plan = plan_exhaustive(run.function, run.golden)
            sample = plan.sample(3001)
            rows = sum(1 for _ in plan_rows(sample))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(plan) == 13_353_984
        assert rows == 3001
        assert peak < 2 * 1024 * 1024


#: A small loop kernel for the statistical test.
STAT_KERNEL = """
int main(int n) {
    int acc = 0;
    int i = 0;
    while (i < n) {
        if (i & 1) { acc = acc + i * 3; } else { acc = acc ^ i; }
        i = i + 1;
    }
    out(acc);
    return acc;
}
"""


def test_sample_intervals_contain_the_uncapped_rates():
    """Statistical fault injection: each effect class's 95% Wilson
    interval from a capped sample contains the rate of the
    uncapped campaign."""
    program = compile_source(STAT_KERNEL)
    regs = program.initial_regs(12)
    machine = Machine(program.function, memory_image=program.memory_image)
    golden = machine.run(regs=regs)
    plan = plan_inject_on_read(program.function, golden)
    config = EngineConfig(checkpoint_interval=16)
    full = CampaignEngine(machine, plan, regs=regs,
                          golden=golden).run(config).effect_counts()
    sample = plan.sample(150)
    counts = CampaignEngine(machine, sample, regs=regs,
                            golden=golden).run(config).effect_counts()
    intervals = effect_intervals(counts, len(sample),
                                 sample.sample_fraction)
    assert set(intervals) == set(EFFECT_CLASSES)
    assert sample.sample_fraction < 0.2
    for effect, (low, high) in intervals.items():
        assert low <= full[effect] / len(plan) <= high, effect
