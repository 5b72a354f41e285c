"""Ablation benches for the reproduction's main design choices.

1. **Extended rule set** (carry-free add propagation + eval-vs-baseline
   masking) — sound extensions the paper leaves on the table; how much
   extra pruning do they buy?
2. **Compiler optimization level** — the paper analyzes post-regalloc
   LLVM code.  Without copy coalescing + DCE the "inferrable" row is
   inflated by compiler-generated copies; this bench quantifies that.
3. **Bit-level vs value-level** — the headline comparison: what does
   analyzing bits instead of values buy on each benchmark?
"""

import pytest

from repro.bec.analysis import run_bec
from repro.bec.intra import RuleSet
from repro.fi.accounting import fault_injection_accounting
from repro.fi.machine import Machine
from repro.minic.compiler import compile_source
from repro.bench.programs import BENCHMARK_ORDER, get_benchmark


@pytest.mark.parametrize("name", ["RSA", "AES", "adpcm_dec"])
def test_ablation_extended_rules(benchmark, prepared, name):
    run = prepared(name)

    def both():
        base = run_bec(run.function)
        extended = run_bec(run.function, rules=RuleSet(extended=True))
        return (fault_injection_accounting(run.function, run.golden,
                                           base),
                fault_injection_accounting(run.function, run.golden,
                                           extended))

    base, extended = benchmark.pedantic(both, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "base_pruned_percent": round(base["pruned_percent"], 2),
        "extended_pruned_percent": round(extended["pruned_percent"], 2),
    })
    assert extended["live_in_bits"] <= base["live_in_bits"]


@pytest.mark.parametrize("name", ["RSA", "CRC32"])
def test_ablation_compiler_optimization(benchmark, name):
    spec = get_benchmark(name)

    def measure(optimize):
        program = compile_source(spec.source, optimize=optimize)
        machine = Machine(program.function,
                          memory_image=program.memory_image)
        golden = machine.run(regs=program.initial_regs(*spec.args))
        bec = run_bec(program.function)
        return fault_injection_accounting(program.function, golden, bec)

    def both():
        return measure(True), measure(False)

    optimized, raw = benchmark.pedantic(both, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "optimized_pruned_percent": round(
            optimized["pruned_percent"], 2),
        "unoptimized_pruned_percent": round(raw["pruned_percent"], 2),
        "optimized_inferrable": optimized["inferrable_bits"],
        "unoptimized_inferrable": raw["inferrable_bits"],
    })
    # Un-coalesced copies inflate the inferrable count.
    assert raw["live_in_values"] >= optimized["live_in_values"]


@pytest.mark.parametrize("name", BENCHMARK_ORDER)
def test_ablation_bit_vs_value_level(benchmark, prepared, name):
    """The paper's core claim per benchmark: bit-level analysis prunes
    runs that value-level inject-on-read must execute."""
    run = prepared(name)

    def account():
        bec = run_bec(run.function)
        return fault_injection_accounting(run.function, run.golden, bec)

    accounting = benchmark.pedantic(account, rounds=1, iterations=1)
    saved = accounting["live_in_values"] - accounting["live_in_bits"]
    benchmark.extra_info.update({
        "value_level_runs": accounting["live_in_values"],
        "bit_level_runs": accounting["live_in_bits"],
        "runs_saved": saved,
    })
    assert saved > 0


@pytest.mark.parametrize("name", ["CRC32", "adpcm_dec", "SHA"])
def test_ablation_strength_reduction(benchmark, name):
    """The paper places BEC late in the backend so strength reduction has
    already lowered arithmetic to bit operations.  Compare the pruning
    rate on level-1 code (no folding) against level-2 code (constant
    folding + strength reduction + peepholes): the lowered code should
    expose at least as many maskable/inferrable bits per live site."""
    spec = get_benchmark(name)

    def measure(level):
        program = compile_source(spec.source, optimize=level)
        machine = Machine(program.function,
                          memory_image=program.memory_image)
        golden = machine.run(regs=program.initial_regs(*spec.args))
        bec = run_bec(program.function)
        return fault_injection_accounting(program.function, golden, bec)

    def both():
        return measure(1), measure(2)

    level1, level2 = benchmark.pedantic(both, rounds=1, iterations=1)
    benchmark.extra_info.update({
        "level1_pruned_percent": round(level1["pruned_percent"], 2),
        "level2_pruned_percent": round(level2["pruned_percent"], 2),
        "level1_live_in_values": level1["live_in_values"],
        "level2_live_in_values": level2["live_in_values"],
    })
    # Optimization may shrink the fault space outright; the analysis
    # must stay applicable either way.
    assert level2["live_in_bits"] <= level2["live_in_values"]
