"""Tests for memory-cell fault modeling."""

import pytest

from repro.bec.analysis import run_bec
from repro.errors import SimulationError
from repro.experiments.common import benchmark_run
from repro.fi.campaign import EFFECT_MASKED
from repro.fi.engine import CampaignEngine
from repro.fi.machine import Machine, MemoryInjection
from repro.fi.memory import (iter_memory_bit_reads, memory_fault_accounting,
                             plan_memory_bec, plan_memory_inject_on_read)
from repro.ir.parser import parse_function


class TestMemoryInjection:
    def test_flip_before_start_corrupts_initial_image(self):
        function = parse_function("""
func f width=32 params=p
bb.entry:
    lw v, 0(p)
    out v
    ret v
""")
        machine = Machine(function, memory_image=b"\x01\x00\x00\x00",
                          memory_size=64)
        golden = machine.run(regs={"p": 0})
        assert golden.outputs == [1]
        injected = machine.run(regs={"p": 0},
                               injection=MemoryInjection(-1, 0, 3))
        assert injected.outputs == [9]

    def test_flip_mid_run_respects_cycle(self):
        # Two loads of the same word; flipping between them corrupts
        # only the second.
        function = parse_function("""
func f width=32 params=p
bb.entry:
    lw a, 0(p)
    lw b, 0(p)
    out a
    out b
    ret b
""")
        machine = Machine(function, memory_image=b"\x00\x00\x00\x00",
                          memory_size=64)
        injected = machine.run(regs={"p": 0},
                               injection=MemoryInjection(0, 0, 0))
        assert injected.outputs == [0, 1]

    def test_cross_byte_bit_index(self):
        function = parse_function("""
func f width=32 params=p
bb.entry:
    lw v, 0(p)
    ret v
""")
        machine = Machine(function, memory_image=bytes(8), memory_size=64)
        injected = machine.run(regs={"p": 0},
                               injection=MemoryInjection(-1, 0, 11))
        assert injected.returned == 1 << 11

    def test_store_overwrites_fault(self):
        function = parse_function("""
func f width=32 params=p
bb.entry:
    li v, 5
    sw v, 0(p)
    lw w, 0(p)
    out w
    ret w
""")
        machine = Machine(function, memory_size=64)
        injected = machine.run(regs={"p": 0},
                               injection=MemoryInjection(-1, 0, 1))
        assert injected.outputs == [5]   # masked by the store

    def test_rejects_negative_address(self):
        with pytest.raises(SimulationError):
            MemoryInjection(0, -4, 0)

    def test_out_of_range_flip_is_rejected(self):
        """A target past the memory is a planning bug, not a masked
        fault — the machine must fail loudly, not silently no-op."""
        function = parse_function("""
func f width=32
bb.entry:
    li r, 1
    ret r
""")
        machine = Machine(function, memory_size=64)
        with pytest.raises(SimulationError):
            machine.run(injection=MemoryInjection(-1, 4096, 0))
        # The last byte is in range; the word straddling it is not.
        with pytest.raises(SimulationError):
            machine.run(injection=MemoryInjection(-1, 63, 8))
        machine.run(injection=MemoryInjection(-1, 63, 7))


PROGRAM = """
func f width=32 params=p
bb.entry:
    li sum, 0
    li rounds, 3
bb.loop:
    lw v, 0(p)
    andi low, v, 1
    add sum, sum, low
    lw w, 4(p)
    andi wl, w, 15
    xor sum, sum, wl
    addi rounds, rounds, -1
    bnez rounds, bb.loop
bb.exit:
    lw z, 0(p)
    out z
    out sum
    ret sum
"""


@pytest.fixture(scope="module")
def prepared():
    function = parse_function(PROGRAM)
    image = (0x0000_0105).to_bytes(4, "little") + \
        (0x0000_00FF).to_bytes(4, "little")
    machine = Machine(function, memory_image=image, memory_size=64)
    regs = {"p": 0}
    golden = machine.run(regs=regs)
    bec = run_bec(function)
    return function, machine, regs, golden, bec


class TestPopulationAndAccounting:
    def test_one_read_per_load_bit(self, prepared):
        function, machine, regs, golden, bec = prepared
        reads = list(iter_memory_bit_reads(function, golden))
        loads = len(golden.loads)
        assert loads == 7            # 2 loads x 3 iterations + epilogue
        assert len(reads) == loads * 32

    def test_accounting_sums(self, prepared):
        function, machine, regs, golden, bec = prepared
        accounting = memory_fault_accounting(function, golden, bec)
        assert accounting["live_in_values"] == \
            accounting["live_in_bits"] + accounting["masked_bits"] + \
            accounting["inferrable_bits"]
        assert accounting["live_in_values"] == 7 * 32
        assert accounting["masked_bits"] > 0
        assert accounting["inferrable_bits"] > 0
        assert 0 <= accounting["pruned_percent"] <= 100

    def test_table_driven_kernel(self):
        """Memory accounting on a registry kernel whose loads dominate
        (CRC32's table lookups), not just the toy program."""
        run = benchmark_run("CRC32")
        accounting = memory_fault_accounting(run.function, run.golden,
                                             run.bec)
        assert accounting["live_in_values"] > 0
        assert accounting["live_in_bits"] <= accounting["live_in_values"]

    def test_plan_sizes_match_accounting(self, prepared):
        function, machine, regs, golden, bec = prepared
        accounting = memory_fault_accounting(function, golden, bec)
        full = plan_memory_inject_on_read(function, golden)
        pruned = plan_memory_bec(function, golden, bec)
        assert len(full) == accounting["live_in_values"]
        assert len(pruned) == accounting["live_in_bits"]
        assert len(pruned) < len(full)


class TestPruningSoundness:
    def test_pruned_runs_are_really_masked_or_inferrable(self, prepared):
        """Every injection the BEC plan prunes must be either masked or
        produce the same trace as another injection the plan keeps —
        i.e. pruning loses no vulnerability information."""
        function, machine, regs, golden, bec = prepared
        full = plan_memory_inject_on_read(function, golden)
        pruned = plan_memory_bec(function, golden, bec)

        kept = {(planned.injection.cycle, planned.injection.address,
                 planned.injection.bit) for planned in pruned}
        kept_signatures = set()
        pruned_out = []
        for planned in full:
            key = (planned.injection.cycle, planned.injection.address,
                   planned.injection.bit)
            injected = machine.run(regs=regs, injection=planned.injection)
            signature = injected.signature()
            if key in kept:
                kept_signatures.add(signature)
            else:
                pruned_out.append((planned, injected, signature))

        golden_signature = golden.signature()
        for planned, injected, signature in pruned_out:
            assert signature == golden_signature or \
                signature in kept_signatures, planned

    def test_vulnerable_count_preserved(self, prepared):
        """The pruned campaign finds a vulnerability iff the full
        campaign does."""
        function, machine, regs, golden, bec = prepared
        full = CampaignEngine(machine,
                              plan_memory_inject_on_read(function, golden),
                              regs=regs, golden=golden).run()
        pruned = CampaignEngine(machine,
                                plan_memory_bec(function, golden, bec),
                                regs=regs, golden=golden).run()
        assert (full.vulnerable_runs() > 0) == \
            (pruned.vulnerable_runs() > 0)
        # Distinct non-golden traces must all be discovered by the
        # pruned campaign as well.
        full_signatures = {s for _, e, s in full.runs
                           if e != EFFECT_MASKED}
        pruned_signatures = {s for _, e, s in pruned.runs
                             if e != EFFECT_MASKED}
        assert full_signatures == pruned_signatures


def test_discarded_load_is_fully_masked():
    """A load into the zero register discards the value: every memory
    bit feeding it is masked."""
    function = parse_function("""
func f width=32 params=p
bb.entry:
    lw zero, 0(p)
    li r, 7
    ret r
""")
    machine = Machine(function, memory_size=64)
    golden = machine.run(regs={"p": 0})
    bec = run_bec(function)
    accounting = memory_fault_accounting(function, golden, bec)
    assert accounting["live_in_values"] == 32
    assert accounting["masked_bits"] == 32
    assert accounting["live_in_bits"] == 0
