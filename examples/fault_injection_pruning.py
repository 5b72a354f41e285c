"""Use case 1 (paper §VI-A): pruning a fault-injection campaign.

Compiles the CRC32 benchmark from mini-C source, derives both the
value-level inject-on-read plan and the BEC bit-level plan, executes a
cycle-stratified sample of each against the simulator, and shows that
the pruned campaign reaches the same per-site verdicts with fewer runs
— the paper's "no loss of accuracy" claim, live.

Run with::

    python examples/fault_injection_pruning.py
"""

from repro.bench.programs import compile_benchmark, get_benchmark
from repro.bec import run_bec
from repro.fi import Machine, plan_bec, plan_inject_on_read
from repro.fi.engine import CampaignEngine

#: How many planned runs of each campaign to actually execute here
#: (the full campaigns take minutes; the accounting covers them all).
EXECUTED_SAMPLE = 400


def main():
    name = "CRC32"
    spec = get_benchmark(name)
    program = compile_benchmark(name)
    machine = Machine(program.function,
                      memory_image=program.memory_image)
    golden = machine.run(regs=program.initial_regs(*spec.args))
    print(f"{name}: {len(program.function.instructions)} instructions, "
          f"{golden.cycles} cycles, crc = {golden.outputs[0]:#010x}\n")

    bec = run_bec(program.function)
    bit_plan = plan_bec(program.function, golden, bec)
    accounting = bit_plan.accounting()      # the plan's own walk
    print("Campaign sizes derived from the analysis:")
    print(f"  inject-on-read : {accounting['live_in_values']:7d} runs")
    print(f"  BEC bit-level  : {accounting['live_in_bits']:7d} runs")
    print(f"  masked bits    : {accounting['masked_bits']:7d} "
          f"(skipped, provably no effect)")
    print(f"  inferrable bits: {accounting['inferrable_bits']:7d} "
          f"(covered by an equivalent run)")
    print(f"  pruned         : {accounting['pruned_percent']:.2f} %\n")

    value_plan = plan_inject_on_read(program.function, golden)
    regs = program.initial_regs(*spec.args)

    print(f"Executing a {EXECUTED_SAMPLE}-run sample of each plan...")
    value_result = CampaignEngine(
        machine, value_plan.sample(EXECUTED_SAMPLE), regs=regs,
        golden=golden).run()
    bit_result = CampaignEngine(
        machine, bit_plan.sample(EXECUTED_SAMPLE), regs=regs,
        golden=golden).run()
    print(f"  value-level sample: {value_result.effect_counts()} "
          f"in {value_result.wall_time:.2f}s")
    print(f"  bit-level sample  : {bit_result.effect_counts()} "
          f"in {bit_result.wall_time:.2f}s")
    print(f"  distinguishable traces archived: "
          f"{value_result.distinct_traces} vs "
          f"{bit_result.distinct_traces}")
    print("\nEvery skipped run is covered by an executed one from the "
          "same equivalence class\n(validated exhaustively by "
          "`python -m repro.experiments table2`).")


if __name__ == "__main__":
    main()
