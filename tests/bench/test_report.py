"""Tests for benchmarks/report.py — the cross-PR perf trajectory.

The script is not part of the installed package (it lives next to the
benchmarks), so it is loaded by file path.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPORT_PATH = Path(__file__).resolve().parents[2] / "benchmarks" \
    / "report.py"
REPO_ROOT = REPORT_PATH.parent.parent


@pytest.fixture(scope="module")
def report():
    spec = importlib.util.spec_from_file_location("bench_report",
                                                  REPORT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path, data):
    path.write_text(json.dumps(data))


@pytest.fixture
def populated(tmp_path):
    """A directory holding one of every known report schema."""
    write(tmp_path / "BENCH_interp.json", {
        "geomean_speedup": 6.6, "gate_geomean": 3.0, "mode": "full",
        "programs": [
            {"program": "bitcount", "speedup": 5.0,
             "threaded_ips": 2.0e6},
            {"program": "CRC32", "speedup": 8.1,
             "threaded_ips": 3.5e6},
        ],
    })
    write(tmp_path / "BENCH_harden.json", {
        "programs": [
            {"full": {"converted": 10}, "baseline_sdc": 12},
            {"full": {"converted": 7}, "baseline_sdc": 7},
        ],
        "aggregate": {"default_budget_coverage": 0.39,
                      "frontier_cost": 0.82},
    })
    write(tmp_path / "BENCH_campaign.json", {
        "mode": "full",
        "geomean_batched_vs_engine": {"exhaustive": 5.26, "bec": 1.47},
        "gate": {"family": "exhaustive", "threshold": 4.0,
                 "passed": True},
        "rows": [
            {"family": "exhaustive", "program": "AES",
             "speedup_batched_vs_engine": 7.2, "plan_runs": 4000,
             "trace_cycles": 900},
            {"family": "bec", "program": "AES",
             "speedup_batched_vs_engine": 1.3, "plan_runs": 400,
             "trace_cycles": 900},
        ],
    })
    write(tmp_path / "SWEEP_nightly.json", {
        "kind": "sweep", "spec": "nightly",
        "totals": {"cells": 3, "cells_run": 1, "cells_cached": 2,
                   "simulator_runs": 120, "wall_time": 4.5},
        "store_stats": {"results": 3, "archived_runs": 360,
                        "archived_wall_time": 12.0},
        "cells": [
            {"kernel": "bitcount", "mode": "bec", "harden": "none",
             "budget": None, "core": "threaded", "cached": True,
             "plan_runs": 120,
             "effects": {"sdc": 30, "detected": 0, "masked": 80}},
            {"kernel": "bitcount", "mode": "bec", "harden": "bec",
             "budget": 0.3, "core": "threaded", "cached": False,
             "plan_runs": 120,
             "effects": {"sdc": 21, "detected": 9, "masked": 80}},
            {"kernel": "CRC32", "mode": "bec", "harden": "none",
             "budget": None, "core": "batched", "cached": True,
             "plan_runs": 120,
             "effects": {"sdc": 44, "detected": 0, "masked": 60}},
        ],
    })
    return tmp_path


class TestSchemaParsing:
    def test_all_known_reports_render(self, report, populated, capsys):
        assert report.main(["--dir", str(populated)]) == 0
        output = capsys.readouterr().out
        assert "PR 2 · threaded-code execution core" in output
        assert "6.60x" in output
        assert "PR 3 · BEC-guided selective redundancy" in output
        assert "17/19 sampled SDCs" in output
        assert "PR 4 · lockstep-vectorized campaign core" in output
        assert "5.26x" in output
        assert "PR 5 · content-addressed campaign store sweep" in output
        assert "3 cells (1 executed, 2 from cache)" in output
        assert "120 simulator runs" in output

    def test_sweep_cells_capped(self, report, tmp_path, capsys):
        cells = [{"kernel": f"k{i}", "mode": "bec", "harden": "none",
                  "budget": None, "core": "threaded", "cached": False,
                  "plan_runs": 1, "effects": {}} for i in range(12)]
        write(tmp_path / "SWEEP_big.json", {
            "kind": "sweep", "spec": "big",
            "totals": {"cells": 12, "cells_run": 12, "cells_cached": 0,
                       "simulator_runs": 12, "wall_time": 0.1},
            "cells": cells,
        })
        assert report.main(["--dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "... and 4 more cells" in output

    def test_unknown_schema_listed_not_crashed(self, report, tmp_path,
                                               capsys):
        write(tmp_path / "BENCH_future.json",
              {"zeta": 1, "alpha": 2, "gate": {}})
        assert report.main(["--dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "BENCH_future.json" in output
        assert "unrecognized schema" in output
        assert "alpha" in output


class TestMissingFileTolerance:
    def test_empty_directory_fails_with_message(self, report, tmp_path,
                                                capsys):
        assert report.main(["--dir", str(tmp_path)]) == 1
        assert "no BENCH_*.json" in capsys.readouterr().err

    def test_partial_set_renders_what_exists(self, report, populated,
                                             capsys):
        (populated / "BENCH_interp.json").unlink()
        (populated / "SWEEP_nightly.json").unlink()
        assert report.main(["--dir", str(populated)]) == 0
        output = capsys.readouterr().out
        assert "PR 2" not in output
        assert "PR 3" in output and "PR 4" in output

    def test_interp_without_optional_sections(self, report, tmp_path,
                                              capsys):
        write(tmp_path / "BENCH_interp.json",
              {"geomean_speedup": 3.3, "programs": []})
        assert report.main(["--dir", str(tmp_path)]) == 0
        assert "3.30x" in capsys.readouterr().out


class TestTrajectoryOrdering:
    def test_reports_render_in_pr_order(self, report, populated, capsys):
        report.main(["--dir", str(populated)])
        output = capsys.readouterr().out
        assert output.index("PR 2") < output.index("PR 3") \
            < output.index("PR 4") < output.index("PR 5")

    def test_unknown_bench_sorts_last(self, report, populated, capsys):
        write(populated / "BENCH_zzz.json", {"mystery": True})
        report.main(["--dir", str(populated)])
        output = capsys.readouterr().out
        assert output.index("PR 5") < output.index("BENCH_zzz.json")

    def test_checked_in_reports_parse(self, report, capsys):
        """The real BENCH_*.json files in the repository must render
        through their registered schemas (no 'unrecognized')."""
        assert report.main(["--dir", str(REPO_ROOT)]) == 0
        output = capsys.readouterr().out
        assert "unrecognized schema" not in output
        assert "PR 2" in output and "PR 3" in output \
            and "PR 4" in output