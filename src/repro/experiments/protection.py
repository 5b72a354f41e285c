"""Protection trade-off — overhead vs. residual SDC under selective redundancy.

This experiment closes the paper's loop: BEC exists to make programs
reliable against soft errors, so here its output *drives* a protection
pass (:mod:`repro.harden`) and fault-injection campaigns measure what
that protection buys.  For every evaluation kernel, one deterministic
cycle-spanning fault plan (a stride of the inject-on-read population)
is replayed — fault for fault — against the unprotected binary, the
fully duplicated binary, and BEC-guided selective hardening at a ladder
of dynamic-instruction overhead budgets.  Reported per variant: the
measured overhead, how many of the baseline's silent data corruptions
the redundancy *converts* into detected-fault traps, and the residual
SDC count.

The shape this regenerates (see the note in the report): detection
coverage of selective duplication grows roughly in proportion to the
overhead invested — with a concave edge that BEC-guided selection earns
by spending the budget on the most vulnerable, best-connected windows
first — and the diffusion-heavy crypto kernels (AES, SHA) need
near-full duplication before their corruption chains are covered.
"""

from repro.experiments.common import benchmark_run, campaign_runner
from repro.experiments.reporting import render_table
from repro.harden.evaluate import ladder_comparison

#: The six evaluation kernels of the interpreter/hardening benches.
PROTECTION_BENCHMARKS = ("bitcount", "dijkstra", "CRC32", "AES", "RSA",
                         "SHA")

#: Overhead-budget ladder for the BEC-guided strategy.
BUDGET_LADDER = (0.3, 0.6, 0.85)

#: Coverage target used for the "budget to reach 90 % of full" column.
COVERAGE_TARGET = 0.9


def run_benchmark(name, target_runs=160, budgets=BUDGET_LADDER):
    run = benchmark_run(name)
    comparison = ladder_comparison(
        run.function, run.golden, regs=run.regs,
        memory_image=run.program.memory_image, bec=run.bec,
        budgets=budgets, target_runs=target_runs,
        coverage_target=COVERAGE_TARGET, runner=campaign_runner())
    frontier = comparison["frontier"]
    return {
        "benchmark": name,
        "plan_runs": comparison["plan_runs"],
        "baseline_sdc": comparison["baseline_sdc"],
        "full_overhead": comparison["full"]["overhead"],
        "full_converted": comparison["full"]["converted"],
        "full_residual": comparison["full"]["residual_sdc"],
        "budgets": comparison["bec"],
        "budget_for_target": frontier["budget"]
            if frontier["coverage"] >= COVERAGE_TARGET else None,
    }


def run_experiment(names=PROTECTION_BENCHMARKS, target_runs=160,
                   budgets=BUDGET_LADDER):
    rows = [run_benchmark(name, target_runs=target_runs, budgets=budgets)
            for name in names]
    return {"rows": rows, "budgets": list(budgets),
            "target": COVERAGE_TARGET}


def render(result):
    budgets = result["budgets"]
    columns = [
        ("benchmark", "Benchmark", ""),
        ("baseline_sdc", "SDC (base)", "d"),
        ("full", "full ovh/conv", ""),
    ]
    for budget in budgets:
        columns.append((f"b{budget}", f"bec@{budget:.2f} ovh/conv/cov",
                        ""))
    columns.append(("b90", f">={result['target']:.0%} at", ""))
    rendered = []
    for row in result["rows"]:
        cells = {
            "benchmark": row["benchmark"],
            "baseline_sdc": row["baseline_sdc"],
            "full": (f"{row['full_overhead']:+.0%}/"
                     f"{row['full_converted']}"),
        }
        for entry in row["budgets"]:
            cells[f"b{entry['budget']}"] = (
                f"{entry['overhead']:+.0%}/{entry['converted']}/"
                f"{entry['coverage']:.0%}")
        cells["b90"] = (f"{row['budget_for_target']:.2f}"
                        if row["budget_for_target"] is not None
                        else f"> {budgets[-1]:.2f}")
        rendered.append(cells)
    title = ("Protection trade-off: SDCs converted to detected faults "
             "(same fault plan replayed per variant)")
    return render_table(title, columns, rendered)


def main():
    print(render(run_experiment()))


if __name__ == "__main__":
    main()
