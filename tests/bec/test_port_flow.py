"""Tests for the runtime port-flow view of the intra rules.

``port_flow`` is what the dynamic chain walker consumes: for each read
port of an instruction, the windows a corruption re-materializes in and
whether the read provably masks it.
"""

import pytest

from repro.bec.intra import RuleSet, port_flow
from repro.bitvalue.lattice import BitVector
from repro.ir.parser import parse_function


def _flow_of(body, values=None, width=4, rules=None,
             params="params=x,y"):
    function = parse_function(
        f"func f width={width} {params}\nbb.entry:\n    {body}\n    ret x\n")
    instruction = function.instructions[0]
    before = dict(values or {})
    for reg in instruction.data_reads():
        before.setdefault(reg, BitVector.top(width))
    return port_flow(instruction, before, width, rules=rules)


class TestPropagation:
    def test_mv_maps_every_bit(self):
        flow = _flow_of("mv z, x")
        for bit in range(4):
            targets, masked = flow[("x", bit)]
            assert targets == (("z", bit),)
            assert not masked

    def test_xor_maps_both_operands(self):
        flow = _flow_of("xor z, x, y")
        assert flow[("x", 2)][0] == (("z", 2),)
        assert flow[("y", 2)][0] == (("z", 2),)

    def test_constant_shift_relocates(self):
        flow = _flow_of("slli z, x, 2")
        targets, masked = flow[("x", 0)]
        assert targets == (("z", 2),)
        # The top bits shift out: masked, no target.
        targets, masked = flow[("x", 3)]
        assert targets == ()
        assert masked

    def test_srl_relocates_down(self):
        flow = _flow_of("srli z, x, 1")
        assert flow[("x", 3)][0] == (("z", 2),)
        assert flow[("x", 0)] == ((), True)


class TestMasking:
    def test_and_with_known_zero_masks(self):
        values = {"y": BitVector.from_string("0011")}
        flow = _flow_of("and z, x, y", values=values)
        assert flow[("x", 3)] == ((), True)        # y bit 3 known 0
        assert flow[("x", 0)] == ((("z", 0),), False)  # y bit 0 known 1

    def test_and_with_unknown_bit_neither(self):
        flow = _flow_of("and z, x, y")
        assert ("x", 1) not in flow   # no evidence either way

    def test_or_with_known_one_masks(self):
        values = {"y": BitVector.from_string("1100")}
        flow = _flow_of("or z, x, y", values=values)
        assert flow[("x", 3)] == ((), True)
        assert flow[("x", 0)] == ((("z", 0),), False)


class TestEvalPorts:
    def test_branch_ports_have_no_window_targets(self):
        function = parse_function("""
func f width=4 params=x
bb.entry:
    beqz x, bb.target
bb.fall:
    ret x
bb.target:
    ret x
""")
        instruction = function.instructions[0]
        flow = port_flow(instruction,
                         {"x": BitVector.from_string("000x")}, 4)
        # Bits 1..3 tie to each other (same decided outcome) but to no
        # window, and they are not masked.
        for bit in (1, 2, 3):
            assert flow[("x", bit)] == ((), False)


class TestExtendedRules:
    def test_add_low_bits_only_with_extended(self):
        values = {"y": BitVector.from_string("1100")}
        base = _flow_of("add z, x, y", values=values)
        assert ("x", 0) not in base
        extended = _flow_of("add z, x, y", values=values,
                            rules=RuleSet(extended=True))
        assert extended[("x", 0)] == ((("z", 0),), False)
        assert extended[("x", 1)] == ((("z", 1),), False)
        assert ("x", 2) not in extended    # carry can reach bit 2

    def test_sub_minuend_low_bits(self):
        values = {"y": BitVector.from_string("1000")}
        extended = _flow_of("sub z, x, y", values=values,
                            rules=RuleSet(extended=True))
        for bit in range(3):
            assert extended[("x", bit)] == ((("z", bit),), False)
        assert ("x", 3) not in extended

    def test_sub_subtrahend_never_propagates(self):
        values = {"x": BitVector.from_string("0000")}
        extended = _flow_of("sub z, x, y", values=values,
                            rules=RuleSet(extended=True))
        assert ("y", 0) not in extended

    def test_never_raises_live_in_bits_on_a_kernel(self):
        """The extensions only add masking and propagation facts, so on
        a real kernel (RSA) they can only shrink the pruned plan."""
        from repro.bec.analysis import run_bec
        from repro.experiments.common import benchmark_run
        from repro.fi.accounting import fault_injection_accounting

        run = benchmark_run("RSA")
        extended = run_bec(run.function, rules=RuleSet(extended=True))
        base = fault_injection_accounting(run.function, run.golden, run.bec)
        more = fault_injection_accounting(run.function, run.golden,
                                          extended)
        assert more["live_in_bits"] <= base["live_in_bits"]


class TestSubExtendedSoundness:
    """The borrow-free sub rule must survive exhaustive validation."""

    @pytest.mark.parametrize("minuend", [0, 1, 7, 12, 15])
    def test_flip_equivalence_holds(self, minuend):
        from repro.bec.analysis import run_bec
        from repro.fi.machine import Machine
        from repro.fi.validate import validate_bec

        function = parse_function("""
func f width=4 params=x
bb.entry:
    li y, 8
    sub z, x, y
    out z
    ret z
""")
        machine = Machine(function)
        golden = machine.run(regs={"x": minuend})
        bec = run_bec(function, rules=RuleSet(extended=True))
        report = validate_bec(function, machine, bec,
                              regs={"x": minuend}, golden=golden)
        assert report.unsound_masked == 0
        assert report.unsound_equivalences == 0
