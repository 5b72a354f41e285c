"""End-to-end evaluation of hardening strategies by fault injection.

The comparison that matters for a protection scheme is *per fault*: the
same physical upset — same register, same bit, landing right after the
same dynamic instruction — replayed against the unprotected and the
hardened binary, and the change of its effect class observed.
:class:`HardenResult.map_plan` provides exactly that replay (the
hardened golden trace interleaves the original instruction stream with
shadows and checkers, so every original cycle has a unique hardened
counterpart), and this module packages it into the campaign comparison
used by ``experiments/protection.py``, ``benchmarks/bench_harden.py``
and the tests:

* build one fault plan against the *original* program (a cycle-spanning
  stride of the inject-on-read population);
* run it against every variant (``none``/``full``/``bec``) through the
  campaign engine;
* count, pairwise against the baseline, how many silent data
  corruptions each variant *converts* to the ``detected`` class, and
  what dynamic instruction overhead it pays for them.
"""

import dataclasses
from collections import namedtuple

from repro.bec.analysis import run_bec
from repro.fi.campaign import EFFECT_DETECTED, EFFECT_SDC, plan_inject_on_read
from repro.fi.config import EngineConfig
from repro.fi.engine import CampaignEngine
from repro.fi.machine import Machine
from repro.harden import harden

VariantOutcome = namedtuple(
    "VariantOutcome",
    ["strategy", "result", "campaign", "golden", "overhead",
     "protected_count", "eligible_count"])

ProtectionComparison = namedtuple(
    "ProtectionComparison",
    ["plan_size", "baseline_sdc", "variants", "conversions"])


def strided_plan(function, golden, target_runs):
    """A deterministic, cycle-spanning stride of the inject-on-read
    population (at most roughly *target_runs* entries).

    Table IV's cap, and the one cap that is not a
    :meth:`repro.fi.campaign.Plan.sample`: the Table IV pins were
    measured on this stride."""
    full = plan_inject_on_read(function, golden)
    stride = max(1, len(full) // max(target_runs, 1))
    return full[::stride]


def run_variant(function, strategy, plan, golden, regs=None,
                memory_image=None, memory_size=1 << 16, bec=None,
                budget=0.3, config=EngineConfig(), core="threaded",
                runner=None):
    """Harden with *strategy*, replay *plan* against it under *config*
    (a :class:`repro.fi.config.EngineConfig`); returns a
    :class:`VariantOutcome`.

    *runner* (a :class:`repro.store.CachingRunner`) serves the mapped
    campaign from the result store when its cell is archived.

    *plan* and *golden* belong to the original *function*; the plan is
    translated through the hardened golden trace before execution.  The
    projected hardened path is asserted against the original golden
    path, so a transform that changed fault-free behaviour fails loudly
    here rather than corrupting the comparison.
    """
    result = harden(function, strategy, budget=budget, golden=golden,
                    bec=bec)
    machine = Machine(result.function, memory_size=memory_size,
                      memory_image=memory_image, core=core)
    hardened_golden = machine.run(regs=regs)
    if hardened_golden.outcome != "ok":
        raise RuntimeError(
            f"hardened golden run failed: {hardened_golden.outcome} "
            f"({hardened_golden.trap_kind or ''})")
    projected = result.projected_path(hardened_golden)
    if projected != golden.executed:
        raise RuntimeError(
            f"hardened golden path does not project onto the original "
            f"({strategy}: {len(projected)} vs {len(golden.executed)} "
            f"original instructions)")
    mapped = result.map_plan(plan, hardened_golden)
    if runner is not None:
        campaign = runner.run(machine, mapped, regs=regs,
                              golden=hardened_golden, config=config,
                              harden=strategy, budget=budget)
    else:
        engine = CampaignEngine(machine, mapped, regs=regs,
                                golden=hardened_golden)
        campaign = engine.run(config)
    overhead = hardened_golden.cycles / golden.cycles - 1 \
        if golden.cycles else 0.0
    from repro.harden.select import eligible_pps
    return VariantOutcome(
        strategy=strategy, result=result, campaign=campaign,
        golden=hardened_golden, overhead=overhead,
        protected_count=len(result.protected),
        eligible_count=len(eligible_pps(function)))


def count_conversions(baseline, variant):
    """Pairs (baseline run is SDC, variant run is detected), by plan
    index — the faults the variant's redundancy caught."""
    return sum(
        1 for (_, base_effect, _), (_, variant_effect, _)
        in zip(baseline.campaign.runs, variant.campaign.runs)
        if base_effect == EFFECT_SDC and variant_effect == EFFECT_DETECTED)


def ladder_comparison(function, golden, regs=None, memory_image=None,
                      memory_size=1 << 16, bec=None,
                      budgets=(0.3, 0.6, 0.85), target_runs=160,
                      config=EngineConfig(), coverage_target=0.9,
                      runner=None):
    """The shared evaluation protocol of ``experiments/protection.py``
    and ``benchmarks/bench_harden.py``: one strided fault plan replayed
    against baseline, full duplication and ``bec`` at a ladder of
    budgets.

    Returns a dict with ``plan_runs``, ``trace_cycles``,
    ``baseline_sdc``, ``full`` (overhead / converted / residual_sdc),
    ``bec`` (one entry per budget: budget / overhead / converted /
    residual_sdc / coverage / protected / eligible) and ``frontier``
    (the first ladder entry whose coverage reaches *coverage_target*,
    else the last).  Keeping this in one place guarantees the
    experiment table and the benchmark gates can never disagree on the
    protocol.  Without a checkpoint interval in *config* one is picked
    from the trace length.
    """
    bec = bec or run_bec(function)
    if not config.checkpoint_interval:
        config = dataclasses.replace(
            config, checkpoint_interval=max(1, golden.cycles // 32))
    plan = strided_plan(function, golden, target_runs)
    common = dict(regs=regs, memory_image=memory_image,
                  memory_size=memory_size, bec=bec, config=config,
                  runner=runner)
    baseline = run_variant(function, "none", plan, golden, **common)
    full = run_variant(function, "full", plan, golden, **common)
    full_converted = count_conversions(baseline, full)
    row = {
        "plan_runs": len(plan),
        "trace_cycles": golden.cycles,
        "baseline_sdc": baseline.campaign.effect_counts()[EFFECT_SDC],
        "full": {
            "overhead": full.overhead,
            "converted": full_converted,
            "residual_sdc": full.campaign.effect_counts()[EFFECT_SDC],
        },
        "bec": [],
    }
    for budget in budgets:
        variant = run_variant(function, "bec", plan, golden,
                              budget=budget, **common)
        converted = count_conversions(baseline, variant)
        row["bec"].append({
            "budget": budget,
            "overhead": variant.overhead,
            "converted": converted,
            "residual_sdc":
                variant.campaign.effect_counts()[EFFECT_SDC],
            "coverage": converted / full_converted if full_converted
                else 1.0,
            "protected": variant.protected_count,
            "eligible": variant.eligible_count,
        })
    row["frontier"] = next(
        (entry for entry in row["bec"]
         if entry["coverage"] >= coverage_target),
        row["bec"][-1])
    return row


def compare_protection(function, golden, regs=None, memory_image=None,
                       memory_size=1 << 16, bec=None, budget=0.3,
                       target_runs=240, config=EngineConfig(),
                       strategies=("none", "full", "bec"), runner=None):
    """Run the full three-way comparison; returns a
    :class:`ProtectionComparison` whose ``variants`` dict maps strategy
    name to :class:`VariantOutcome` and whose ``conversions`` dict maps
    non-baseline strategies to their SDC-to-detected conversion count.
    """
    bec = bec or run_bec(function)
    plan = strided_plan(function, golden, target_runs)
    variants = {}
    for strategy in strategies:
        variants[strategy] = run_variant(
            function, strategy, plan, golden, regs=regs,
            memory_image=memory_image, memory_size=memory_size, bec=bec,
            budget=budget, config=config, runner=runner)
    baseline = variants["none"]
    conversions = {strategy: count_conversions(baseline, outcome)
                   for strategy, outcome in variants.items()
                   if strategy != "none"}
    return ProtectionComparison(
        plan_size=len(plan),
        baseline_sdc=baseline.campaign.effect_counts()[EFFECT_SDC],
        variants=variants,
        conversions=conversions)
