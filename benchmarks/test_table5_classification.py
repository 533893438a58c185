"""Table V — benchmark classification and granularity.

Checks, for all fourteen benchmarks:

- the measured 1-core ``/threads/time/average`` lands in the paper's
  granularity class (coarse / moderate / fine / very fine);
- the std::async versions of exactly Fib, Health, NQueens and UTS fail;
- every HPX version completes;
- very fine benchmarks show HPX task overheads of 0.5-1 us
  (Section VI).
"""

from __future__ import annotations

from repro.api import Session, WorkloadSpec
from repro.experiments.config import QUICK_CORE_COUNTS
from repro.experiments.tables import table5
from repro.experiments.report import render_table5
from repro.inncabs.suite import available_benchmarks

from conftest import experiment, run_once

_OVERHEAD = "/threads{locality#0/total}/time/average-overhead"

# "variable/..." classes compare on the base class.
def base_class(granularity: str) -> str:
    return granularity.split("/")[-1].strip()


def test_table5(benchmark):
    suite = run_once(benchmark, experiment, available_benchmarks(), core_counts=QUICK_CORE_COUNTS)
    rows = table5(suite)
    print()
    print(render_table5(rows))

    assert len(rows) == 14
    for row in rows:
        assert base_class(row.granularity) == base_class(row.paper_granularity), (
            f"{row.benchmark}: measured {row.task_duration_us:.2f} us -> "
            f"{row.granularity}, paper says {row.paper_granularity}"
        )
        # Grain sizes within ~2.5x of the paper's absolute numbers.
        ratio = row.task_duration_us / row.paper_task_duration_us
        assert 0.4 < ratio < 2.5, (
            f"{row.benchmark}: grain {row.task_duration_us:.2f} us vs paper "
            f"{row.paper_task_duration_us} us"
        )

    std_fail = {r.benchmark for r in rows if r.scaling_std == "fail"}
    assert std_fail == {"fib", "health", "nqueens", "uts"}
    assert all(r.scaling_hpx != "fail" for r in rows)


def test_very_fine_task_overhead_band(benchmark):
    """Section VI: 0.5-1 us task overheads for the very fine benchmarks."""

    def measure():
        session = Session(runtime="hpx", cores=1)
        overheads = {}
        for name in ("fib", "health", "uts", "intersim", "qap"):
            result = session.run(WorkloadSpec.parse(name))
            overheads[name] = result.counter(_OVERHEAD)
        return overheads

    overheads = run_once(benchmark, measure)
    print()
    for name, ns in overheads.items():
        print(f"  {name:10s} task overhead {ns:7.1f} ns")
        assert 400 <= ns <= 1_300, f"{name}: overhead {ns:.0f} ns outside 0.5-1 us band"
