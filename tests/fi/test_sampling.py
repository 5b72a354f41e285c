"""Tests for the statistical fault-injection estimators."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.bec.analysis import run_bec
from repro.fi.machine import Machine
from repro.fi.sampling import (estimate_avf, exhaustive_avf,
                               inject_on_read_population,
                               inverse_normal_cdf, wilson_interval)
from repro.ir.parser import parse_function


class TestInverseNormal:
    def test_median(self):
        assert abs(inverse_normal_cdf(0.5)) < 1e-12

    def test_symmetry(self):
        for p in (0.01, 0.1, 0.25, 0.4):
            assert inverse_normal_cdf(p) == \
                pytest.approx(-inverse_normal_cdf(1 - p), abs=1e-9)

    def test_known_quantiles(self):
        assert inverse_normal_cdf(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert inverse_normal_cdf(0.995) == pytest.approx(2.575829, abs=1e-5)
        assert inverse_normal_cdf(0.841344746) == pytest.approx(1.0, abs=1e-6)

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for p in (1e-6, 0.001, 0.3, 0.5, 0.7, 0.999, 1 - 1e-6):
            assert inverse_normal_cdf(p) == \
                pytest.approx(scipy_stats.norm.ppf(p), abs=1e-7)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_rejects_out_of_domain(self, p):
        with pytest.raises(ValueError):
            inverse_normal_cdf(p)


class TestWilsonInterval:
    def test_contains_proportion(self):
        low, high = wilson_interval(30, 100)
        assert low < 0.3 < high

    def test_zero_successes_has_zero_low(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0
        assert 0 < high < 0.15

    def test_all_successes_has_one_high(self):
        low, high = wilson_interval(50, 50)
        assert high == 1.0
        assert 0.85 < low < 1

    def test_narrows_with_trials(self):
        narrow = wilson_interval(500, 1000)
        wide = wilson_interval(5, 10)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_widens_with_confidence(self):
        at95 = wilson_interval(30, 100, confidence=0.95)
        at99 = wilson_interval(30, 100, confidence=0.99)
        assert at99[1] - at99[0] > at95[1] - at95[0]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 3)

    @given(st.integers(min_value=0, max_value=200),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_bounds_are_ordered_and_clamped(self, successes, trials):
        successes = min(successes, trials)
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= successes / trials <= high <= 1.0


PROGRAM = """
func f width=8 params=x
bb.entry:
    li acc, 0
    li mask, 1
bb.loop:
    and low, x, mask
    add acc, acc, low
    srli x, x, 1
    bnez x, bb.loop
bb.exit:
    out acc
    ret acc
"""


@pytest.fixture(scope="module")
def prepared():
    function = parse_function(PROGRAM)
    machine = Machine(function)
    regs = {"x": 0b10110101}
    golden = machine.run(regs=regs)
    bec = run_bec(function)
    truth = exhaustive_avf(machine, function, golden, regs=regs,
                           golden=golden)
    return function, machine, regs, golden, bec, truth


class TestEstimateAVF:
    def test_estimate_close_to_ground_truth(self, prepared):
        function, machine, regs, golden, bec, truth = prepared
        estimate = estimate_avf(machine, function, golden, budget=400,
                                seed=7, regs=regs, golden=golden)
        assert abs(estimate.avf - truth) < 0.1
        assert estimate.low <= estimate.avf <= estimate.high

    def test_interval_covers_truth_for_most_seeds(self, prepared):
        function, machine, regs, golden, bec, truth = prepared
        covered = 0
        seeds = range(10)
        for seed in seeds:
            estimate = estimate_avf(machine, function, golden, budget=300,
                                    seed=seed, regs=regs, golden=golden)
            if estimate.low <= truth <= estimate.high:
                covered += 1
        assert covered >= 8   # 95 % nominal coverage, generous slack

    def test_bec_collapse_reduces_simulator_runs(self, prepared):
        function, machine, regs, golden, bec, truth = prepared
        uniform = estimate_avf(machine, function, golden, budget=300,
                               seed=3, regs=regs, golden=golden)
        collapsed = estimate_avf(machine, function, golden, budget=300,
                                 seed=3, regs=regs, golden=golden, bec=bec)
        assert uniform.simulator_runs <= 300
        assert collapsed.simulator_runs < uniform.simulator_runs
        assert abs(collapsed.avf - truth) < 0.1

    def test_collapsed_estimate_is_unbiased_in_aggregate(self, prepared):
        function, machine, regs, golden, bec, truth = prepared
        estimates = [estimate_avf(machine, function, golden, budget=200,
                                  seed=seed, regs=regs, golden=golden,
                                  bec=bec).avf
                     for seed in range(12)]
        mean = sum(estimates) / len(estimates)
        standard_error = math.sqrt(truth * (1 - truth) / 200 / 12) + 1e-9
        assert abs(mean - truth) < 5 * standard_error + 0.02

    def test_rejects_nonpositive_budget(self, prepared):
        function, machine, regs, golden, bec, truth = prepared
        with pytest.raises(ValueError):
            estimate_avf(machine, function, golden, budget=0, regs=regs)

    def test_deterministic_for_fixed_seed(self, prepared):
        function, machine, regs, golden, bec, truth = prepared
        first = estimate_avf(machine, function, golden, budget=100,
                             seed=42, regs=regs, golden=golden)
        second = estimate_avf(machine, function, golden, budget=100,
                              seed=42, regs=regs, golden=golden)
        assert first == second


class TestPopulation:
    def test_population_matches_live_in_values(self, prepared):
        function, machine, regs, golden, bec, truth = prepared
        from repro.fi.accounting import fault_injection_accounting
        accounting = fault_injection_accounting(function, golden, bec)
        value_level = inject_on_read_population(function, golden)
        bit_level = inject_on_read_population(function, golden, bec=bec)
        assert len(value_level) == accounting["live_in_values"]
        assert len(bit_level) == accounting["live_in_values"]

    def test_masked_flag_matches_accounting(self, prepared):
        function, machine, regs, golden, bec, truth = prepared
        from repro.fi.accounting import fault_injection_accounting
        accounting = fault_injection_accounting(function, golden, bec)
        population = inject_on_read_population(function, golden, bec=bec)
        masked = sum(1 for site in population if site.masked)
        assert masked == accounting["masked_bits"]

    def test_masked_sites_never_vulnerable(self, prepared):
        """Soundness spot check: every site the analysis marks masked
        must really leave the trace unchanged when injected."""
        function, machine, regs, golden, bec, truth = prepared
        population = inject_on_read_population(function, golden, bec=bec)
        masked_sites = [site for site in population if site.masked][:64]
        from repro.fi.campaign import EFFECT_MASKED, classify_effect
        for site in masked_sites:
            injected = machine.run(regs=regs, injection=site.injection)
            assert classify_effect(golden, injected) == EFFECT_MASKED
