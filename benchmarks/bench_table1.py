"""Table I benchmark: exhaustive fault-injection campaign cost.

Runs the exhaustive campaign on a sampled slice per benchmark — a fixed
trace prefix and a strided subset of the register file — and records
measured plus extrapolated cost: the reproduction of the paper's
hours/GB table at simulator scale.  Campaign cost is linear in
(cycles × register bits) runs of roughly trace length each, so the slice
extrapolates to the full campaign the same way the paper's numbers grow
with trace length.
"""

import pytest

from repro.fi.campaign import plan_exhaustive
from repro.fi.engine import CampaignEngine
from repro.fi.trace import Trace
from repro.experiments.table1 import PAPER_TABLE1, TABLE1_BENCHMARKS

CYCLE_LIMIT = 10
REGISTER_STRIDE = 3


@pytest.mark.parametrize("name", TABLE1_BENCHMARKS)
def test_table1_row(benchmark, prepared, name):
    run = prepared(name)
    prefix = Trace()
    prefix.executed = run.golden.executed[:CYCLE_LIMIT]
    registers = run.function.registers()[::REGISTER_STRIDE]
    plan = plan_exhaustive(run.function, prefix, registers=registers)

    def campaign():
        return CampaignEngine(run.machine, plan, regs=run.regs,
                              golden=run.golden).run()

    result = benchmark.pedantic(campaign, rounds=1, iterations=1)
    cycle_scale = run.golden.cycles / min(CYCLE_LIMIT, run.golden.cycles)
    register_scale = len(run.function.registers()) / len(registers)
    scale = cycle_scale * register_scale
    benchmark.extra_info.update({
        "trace_cycles": run.golden.cycles,
        "sampled_runs": len(plan),
        "full_campaign_runs": int(len(plan) * scale),
        "extrapolated_time_s": round(
            result.wall_time * scale * cycle_scale, 1),
        "archived_bytes_extrapolated": int(result.archived_bytes * scale),
        "distinct_traces": result.distinct_traces,
        "paper_hours": PAPER_TABLE1[name][0],
        "paper_gb": PAPER_TABLE1[name][1],
    })
    assert result.distinct_traces >= 1
