"""End-to-end tests of the experiment harnesses against the paper's
reproducible claims."""

import pytest

from repro.experiments import (fig2, fig4, protection, table1, table2,
                               table3, table4)


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2.run_experiment()

    def test_paper_numbers_exact(self, result):
        assert result["value_level_runs"] == 288
        assert result["bit_level_runs"] == 225
        assert result["live_fault_sites"] == 681
        assert result["hand_scheduled_sites"] == 576

    def test_auto_scheduler_matches_paper(self, result):
        assert result["auto_scheduled_sites"] == 576

    def test_render(self, result):
        text = fig2.render(result)
        assert "288" in text and "225" in text and "681" in text


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4.run_experiment()

    def test_all_checks_pass(self, result):
        assert all(result["checks"].values())

    def test_render(self, result):
        assert "PASS" in fig4.render(result)
        assert "FAIL" not in fig4.render(result)


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3.run_experiment()

    def test_all_benchmarks_present(self, result):
        assert len(result["rows"]) == 8

    def test_counts_consistent(self, result):
        for row in result["rows"]:
            assert row["live_in_bits"] <= row["live_in_values"]
            assert row["live_in_bits"] + row["masked_bits"] + \
                row["inferrable_bits"] == row["live_in_values"]
            # Bit-level analysis saves runs on every kernel.
            assert row["pruned_percent"] > 0, row["benchmark"]

    def test_shape_matches_paper(self, result):
        """Qualitative agreements with the paper's Table III analysis:
        the xor-saturated crypto kernels (AES, SHA) prune the most,
        dijkstra (compare/add dominated) prunes the least, and the
        ADPCM decoder beats the encoder thanks to its masked clamps."""
        pruned = {row["benchmark"]: row["pruned_percent"]
                  for row in result["rows"]}
        ranked = sorted(pruned, key=pruned.get, reverse=True)
        assert set(ranked[:2]) <= {"AES", "SHA", "CRC32"}
        assert "AES" in ranked[:3]
        # The compare/add-dominated kernels prune the least (paper:
        # dijkstra and RSA; our mini-C RSA is more bit-oppy than the
        # real one, so the encoder takes its slot).
        assert set(ranked[-2:]) == {"dijkstra", "adpcm_enc"}
        assert pruned["adpcm_dec"] > pruned["adpcm_enc"]

    def test_average_in_paper_ballpark(self, result):
        assert 5.0 <= result["average_pruned_percent"] <= 35.0

    def test_render(self, result):
        text = table3.render(result)
        assert "bitcount" in text and "Pruned" in text


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return table4.run_experiment()

    def test_all_benchmarks_present(self, result):
        assert len(result["rows"]) == 8

    def test_best_not_worse_than_worst(self, result):
        for row in result["rows"]:
            assert row["best_reliability"] <= row["worst_reliability"]
            assert row["best_reliability"] <= row["total_fault_space"]

    def test_improvements_positive_on_average(self, result):
        assert result["average_improvement_percent"] > 0

    def test_render(self, result):
        assert "Worst/Best" in table4.render(result)


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run_experiment(names=("bitcount", "RSA"),
                                     cycle_limit=10)

    def test_rows(self, result):
        assert len(result["rows"]) == 2
        for row in result["rows"]:
            assert row["campaign_runs"] > 0
            assert row["measured_time_s"] > 0
            assert row["extrapolated_bytes"] >= row["measured_bytes"]
            assert row["distinct_traces"] >= 1

    def test_analysis_cheaper_than_campaign(self, result):
        for row in result["rows"]:
            assert row["bec_analysis_time_s"] < \
                row["extrapolated_time_s"]

    def test_render(self, result):
        assert "Table I" in table1.render(result)


class TestProtection:
    @pytest.fixture(scope="class")
    def result(self):
        return protection.run_experiment(names=("bitcount", "RSA"),
                                         target_runs=64,
                                         budgets=(0.3, 0.85))

    def test_rows(self, result):
        assert len(result["rows"]) == 2
        for row in result["rows"]:
            assert row["baseline_sdc"] > 0
            # Full duplication converts every baseline SDC it sees.
            assert row["full_converted"] == row["baseline_sdc"]
            assert row["full_residual"] == 0
            assert row["full_overhead"] > 0.5

    def test_budgets_monotone_and_honored(self, result):
        for row in result["rows"]:
            entries = row["budgets"]
            for entry in entries:
                assert entry["overhead"] <= entry["budget"] + 0.02
                assert 0 <= entry["converted"] <= row["full_converted"]
                assert entry["residual_sdc"] + entry["converted"] \
                    <= row["baseline_sdc"]
            assert entries[-1]["converted"] >= entries[0]["converted"]

    def test_render(self, result):
        text = protection.render(result)
        assert "bitcount" in text and "Protection trade-off" in text


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run_experiment(selection=(("RSA", 30),
                                                ("adpcm_enc", 30),
                                                ("adpcm_dec", 30),
                                                ("bitcount", 20)))

    def test_no_unsound_cases(self, result):
        assert result["total_unsound"] == 0

    def test_work_done(self, result):
        for row in result["rows"]:
            assert row["fi_runs"] > 0

    def test_render(self, result):
        assert "NO UNSOUND CASES" in table2.render(result)
