"""Statistical fault-injection campaigns (sampling instead of sweeping).

Exhaustive campaigns are the gold standard the paper validates against
(§V, Table I), but at realistic trace lengths practitioners sample:
inject a random subset of fault sites and report the architectural
vulnerability factor (AVF — the fraction of faults that change observable
behaviour) with a confidence interval.

This module provides two estimators over the inject-on-read population
(every bit of every dynamic live window, the paper's "Live in values"
universe):

* :func:`estimate_avf` with ``bec=None`` — plain uniform Monte-Carlo
  sampling with a Wilson score interval;
* :func:`estimate_avf` with a BEC analysis — the *same* estimator, but
  fault sites in one equivalence class epoch share their outcome (that
  is exactly what the coalescing analysis proves), so one simulator run
  is reused for every sampled member of the class.  Masked sites need no
  run at all.  The estimate is identical in distribution to uniform
  sampling while performing a fraction of the simulator runs.

The ground truth for tests and benches is :func:`exhaustive_avf`.
"""

import math
import random
from collections import namedtuple

from repro import obs
from repro.fi.accounting import iter_bit_instances
from repro.fi.campaign import (EFFECT_CLASSES, EFFECT_MASKED,
                               classify_effect, plan_inject_on_read)
from repro.fi.config import EngineConfig
from repro.fi.machine import Injection

AVFEstimate = namedtuple(
    "AVFEstimate",
    ["avf", "low", "high", "trials", "vulnerable", "simulator_runs",
     "population"])


# -- interval arithmetic ------------------------------------------------------


def inverse_normal_cdf(p):
    """Quantile function of the standard normal distribution.

    Acklam's rational approximation — relative error below 1.15e-9 over
    the whole domain, which is far tighter than any sampling noise the
    interval will carry.  Implemented here to keep the module dependency
    free (tests cross-check it against scipy).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > p_high:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                 * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4])
            * r + a[5]) * q / \
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


def wilson_interval(successes, trials, confidence=0.95):
    """Wilson score interval for a binomial proportion.

    Returns ``(low, high)``; well-behaved at 0 and at ``trials``
    successes, unlike the normal approximation.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    z = inverse_normal_cdf(0.5 + confidence / 2.0)
    phat = successes / trials
    denominator = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denominator
    spread = (z * math.sqrt(phat * (1 - phat) / trials
                            + z * z / (4 * trials * trials))
              / denominator)
    low = 0.0 if successes == 0 else max(0.0, center - spread)
    high = 1.0 if successes == trials else min(1.0, center + spread)
    # Guard against rounding pushing a bound across the point estimate.
    return (min(low, phat), max(high, phat))


def effect_intervals(counts, trials, sample_fraction):
    """``effect class -> (low, high)`` rate bounds for every class of
    :data:`repro.fi.campaign.EFFECT_CLASSES`, from *counts* over
    *trials* runs: the 95% Wilson interval when the runs are a sample of
    the plan (``sample_fraction < 1``), the exact rate when they are
    the whole plan.  Empty without trials."""
    if not trials:
        return {}
    intervals = {}
    for effect in EFFECT_CLASSES:
        count = counts.get(effect, 0)
        if sample_fraction < 1:
            intervals[effect] = wilson_interval(count, trials)
        else:
            intervals[effect] = (count / trials, count / trials)
    return intervals


def format_intervals(intervals):
    """``"masked 12.0%-18.3%, sdc ..."`` for an :func:`effect_intervals`
    result."""
    return ", ".join(f"{effect} {low:.1%}-{high:.1%}"
                     for effect, (low, high) in intervals.items())


# -- populations ----------------------------------------------------------------


SampledSite = namedtuple("SampledSite", ["injection", "key", "masked"])


def inject_on_read_population(function, trace, bec=None, liveness=None):
    """The sampling population: one :class:`SampledSite` per bit of every
    dynamic live window in *trace*.

    With *bec*, each site carries the ``(class, epoch)`` key the
    coalescing analysis proved outcome-equivalent, and statically masked
    sites are marked so the estimator can skip their simulator runs.
    Without it every site gets a unique key (plain uniform sampling).
    """
    if bec is None:
        return [SampledSite(planned.injection,
                            ("site", planned.injection.cycle,
                             planned.injection.reg, planned.injection.bit),
                            False)
                for planned in plan_inject_on_read(function, trace,
                                                   liveness)]
    population = []
    for instance in iter_bit_instances(function, trace, bec):
        if instance.rep == 0:
            key = ("masked",)
        else:
            key = ("class", instance.rep, instance.epoch)
        population.append(SampledSite(
            Injection(instance.cycle, instance.reg, instance.bit),
            key, instance.rep == 0))
    return population


# -- estimators ----------------------------------------------------------------


def _batched_outcome_cache(machine, sampled, regs, golden, snapshots,
                           max_cycles):
    """Classify every unique sampled site in one lockstep pass
    (:mod:`repro.fi.batch`) and return the ``key -> vulnerable`` cache
    the sequential estimator loop would have built — same outcomes,
    same number of simulator runs, a fraction of the wall clock.
    Returns ``None`` when the setup is not batchable."""
    from repro.fi import batch
    from repro.fi.campaign import PlannedRun

    if not (batch.numpy_available()
            and batch.batchable(machine, golden, snapshots or [],
                                max_cycles)):
        return None
    unique = {}
    for site in sampled:
        if not site.masked and site.key not in unique:
            unique[site.key] = site.injection
    plan = [PlannedRun(injection, None, None, None)
            for injection in unique.values()]
    classifier = batch.BatchClassifier(machine, plan, regs, golden,
                                       snapshots, max_cycles)
    records = classifier.classify_indices(range(len(plan)))
    return {key: effect != EFFECT_MASKED
            for key, (effect, _, _) in zip(unique, records)}


def estimate_avf(machine, function, trace, budget, seed=0, regs=None,
                 bec=None, golden=None, confidence=0.95,
                 config=EngineConfig()):
    """Estimate the AVF of *function* by sampling *budget* fault sites.

    Samples uniformly with replacement from the inject-on-read
    population of *trace*.  With *bec* the outcome of each equivalence
    class epoch is computed once and reused (and masked sites are free),
    which cuts simulator runs without changing the estimator's
    distribution.  With ``config.checkpoint_interval`` (an
    :class:`repro.fi.config.EngineConfig`) each simulator run resumes
    from the deepest golden-run snapshot before its injection cycle
    (identical outcomes, shorter runs).  On a ``core="batched"``
    machine (with checkpointing) all unique sampled sites are
    classified in one lockstep pass instead of one run at a time — the
    estimate and ``simulator_runs`` are identical by construction.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    golden = golden or machine.run(regs=regs)
    max_cycles = 4 * golden.cycles + 1024
    snapshots = None
    if config.checkpoint_interval:
        from repro.fi.engine import run_injection
        _, snapshots = machine.run_with_snapshots(
            regs=regs, interval=config.checkpoint_interval,
            max_cycles=max_cycles)
    population = inject_on_read_population(function, trace, bec=bec)
    if not population:
        raise ValueError("empty fault population; nothing to sample")
    rng = random.Random(seed)
    sampled = [population[rng.randrange(len(population))]
               for _ in range(budget)]
    cache = None
    simulator_runs = 0
    if machine.core == "batched" and snapshots:
        cache = _batched_outcome_cache(machine, sampled, regs, golden,
                                       snapshots, max_cycles)
        if cache is not None:
            simulator_runs = len(cache)
    if cache is None:
        cache = {}
        for site in sampled:
            if site.masked or site.key in cache:
                continue
            if snapshots:
                injected = run_injection(machine, site.injection, regs,
                                         snapshots, max_cycles)
            else:
                injected = machine.run(regs=regs,
                                       injection=site.injection,
                                       max_cycles=max_cycles)
            cache[site.key] = classify_effect(golden, injected) \
                != EFFECT_MASKED
            simulator_runs += 1
    vulnerable = sum(1 for site in sampled
                     if not site.masked and cache[site.key])
    registry = obs.metrics()
    registry.counter("sample.trials",
                     help="AVF estimator samples drawn").inc(budget)
    registry.counter("sample.simulator_runs",
                     help="Simulator runs the estimator paid for "
                          "(dedup + masked-free sites excluded)"
                     ).inc(simulator_runs)
    low, high = wilson_interval(vulnerable, budget, confidence=confidence)
    return AVFEstimate(avf=vulnerable / budget, low=low, high=high,
                       trials=budget, vulnerable=vulnerable,
                       simulator_runs=simulator_runs,
                       population=len(population))


def exhaustive_avf(machine, function, trace, regs=None, golden=None,
                   config=EngineConfig()):
    """Ground-truth AVF: run the full inject-on-read campaign."""
    from repro.fi.engine import CampaignEngine

    golden = golden or machine.run(regs=regs)
    plan = plan_inject_on_read(function, trace)
    result = CampaignEngine(machine, plan, regs=regs,
                            golden=golden).run(config)
    if not plan:
        raise ValueError("empty fault population; nothing to inject")
    return result.vulnerable_runs() / len(plan)
