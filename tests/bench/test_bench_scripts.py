"""Every benchmark script must be run by CI.

A bench nothing runs drifts from the code it measures and asserts facts
nobody checks; the paper's claims belong in the tier-1 experiment
tests, and ``benchmarks/`` keeps only the gates a CI step executes.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_every_bench_script_is_run_by_ci():
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    invoked = set(re.findall(r"python (benchmarks/bench_\w+\.py)", workflow))
    scripts = {f"benchmarks/{path.name}"
               for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
    assert scripts
    assert scripts <= invoked, sorted(scripts - invoked)
