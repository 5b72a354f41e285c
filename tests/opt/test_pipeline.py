"""Tests for the optimization pipeline driver and the compiler hookup."""

import pytest

from repro.bec.analysis import run_bec
from repro.bench.programs import get_benchmark
from repro.fi.accounting import fault_injection_accounting
from repro.fi.machine import Machine
from repro.ir.parser import parse_function
from repro.minic.compiler import compile_source
from repro.opt import LEVELS, optimize, run_pipeline


def test_level_zero_is_identity():
    function = parse_function("""
func f width=8 params=x
bb.entry:
    mv y, x
    addi r, y, 0
    ret r
""")
    assert optimize(function, level=0) is function


def test_level_two_reaches_fixpoint():
    # Folding exposes a peephole which exposes DCE; one level-2 call
    # must reach the stable form.
    function = parse_function("""
func f width=8 params=x
bb.entry:
    li a, 0
    add b, x, a
    li c, 3
    li d, 4
    add e, c, d
    add r, b, e
    ret r
""")
    optimized = optimize(function, level=2)
    again = optimize(optimized, level=2)
    assert len(again.instructions) == len(optimized.instructions)
    assert Machine(optimized).run(regs={"x": 5}).returned == 5 + 7


def test_unknown_level_rejected():
    function = parse_function(
        "func f width=8\nbb.entry:\n    li r, 1\n    ret r\n")
    with pytest.raises(ValueError):
        optimize(function, level=17)


def test_unknown_pass_rejected():
    function = parse_function(
        "func f width=8\nbb.entry:\n    li r, 1\n    ret r\n")
    with pytest.raises(ValueError):
        run_pipeline(function, ("no-such-pass",))


def test_levels_are_cumulativeish():
    assert LEVELS[0] == ()
    assert set(LEVELS[1]) <= set(LEVELS[2])


@pytest.mark.parametrize("name", ["bitcount", "CRC32", "adpcm_dec"])
def test_level2_preserves_benchmark_output(name):
    """Differential test: the full pipeline must not change observable
    behaviour of the real benchmark kernels."""
    spec = get_benchmark(name)
    reference = None
    for level in (1, 2):
        program = compile_source(spec.source, optimize=level)
        machine = Machine(program.function,
                          memory_image=program.memory_image)
        trace = machine.run(regs=program.initial_regs(*spec.args))
        observable = (tuple(trace.outputs), trace.returned)
        if reference is None:
            reference = observable
        else:
            assert observable == reference


@pytest.mark.parametrize("name", ["bitcount", "CRC32"])
def test_level2_does_not_grow_code(name):
    spec = get_benchmark(name)
    level1 = compile_source(spec.source, optimize=1)
    level2 = compile_source(spec.source, optimize=2)
    assert len(level2.function.instructions) <= \
        len(level1.function.instructions)


def test_accounting_across_levels():
    """On RSA, un-coalesced codegen copies inflate the value-level fault
    space (level 0 has at least as many live-in values as level 1), and
    the analysis stays applicable to strength-reduced level-2 code."""
    spec = get_benchmark("RSA")
    accounting = {}
    for level in (0, 1, 2):
        program = compile_source(spec.source, optimize=level)
        machine = Machine(program.function,
                          memory_image=program.memory_image)
        golden = machine.run(regs=program.initial_regs(*spec.args))
        accounting[level] = fault_injection_accounting(
            program.function, golden, run_bec(program.function))
    assert accounting[0]["live_in_values"] >= \
        accounting[1]["live_in_values"]
    assert accounting[2]["live_in_bits"] <= accounting[2]["live_in_values"]
