"""Ablation: the std::async memory budget vs the failure pattern.

DESIGN.md §6 scales the paper's 62 GiB / ~90 k-thread budget down to
3,000 live threads to match the ~30x smaller benchmark inputs.  This
bench sweeps that single constant and shows the Table V failure set is
a *budget-threshold* phenomenon, not hard-coded: generous budgets let
everything finish; tight budgets kill progressively more benchmarks in
live-footprint order (fib and nqueens blow up first, the loop-like
coarse benchmarks never do).
"""

from __future__ import annotations

from dataclasses import replace

from repro.api import RunSpec, Session
from repro.kernel.config import default_std_params

from conftest import run_once

PROBES = ("fib", "nqueens", "health", "uts", "sort", "alignment", "round")


def _failures(thread_budget: int) -> set[str]:
    base = default_std_params()
    costs = replace(base, ram_budget_bytes=thread_budget * base.thread_commit_bytes)
    failed = set()
    for name in PROBES:
        result = Session().run(RunSpec(name, runtime="std", cores=20, costs=costs))
        if result.aborted:
            failed.add(name)
    return failed


def test_thread_budget_sweep(benchmark):
    def measure():
        return {budget: _failures(budget) for budget in (1_000, 3_000, 50_000)}

    by_budget = run_once(benchmark, measure)
    print()
    for budget, failed in by_budget.items():
        print(f"  budget {budget:6d} live threads -> fail: {sorted(failed) or '(none)'}")

    # The paper's configuration: exactly the Table V failure set.
    assert by_budget[3_000] == {"fib", "nqueens", "health", "uts"}
    # Failures are monotone in the budget ...
    assert by_budget[3_000] <= by_budget[1_000]
    # ... a generous budget lets every probe complete ...
    assert by_budget[50_000] == set()
    # ... and the coarse loop-like benchmarks never fail.
    assert "alignment" not in by_budget[1_000]
    assert "round" not in by_budget[1_000]
