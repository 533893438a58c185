"""Fib — naive recursive Fibonacci (Inncabs/BOTS classic).

Recursive balanced, no synchronization beyond the child joins, very
fine grained: Table V reports 1.37 µs average task duration and the
``std::async`` version failing outright (each call tree node is a
pthread; the live-thread count explodes).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.model.population import CohortPlan, TaskCohort
from repro.model.work import Work


def fib_reference(n: int) -> int:
    """Iterative Fibonacci, used for verification."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _fib_task(ctx: Any, n: int, leaf_ns: int, combine_ns: int):
    if n < 2:
        yield ctx.compute(leaf_ns)
        return n
    fa = yield ctx.async_(_fib_task, n - 1, leaf_ns, combine_ns)
    fb = yield ctx.async_(_fib_task, n - 2, leaf_ns, combine_ns)
    a = yield ctx.wait(fa)
    b = yield ctx.wait(fb)
    yield ctx.compute(combine_ns, membytes=192)
    return a + b


class FibBenchmark(Benchmark):
    info = BenchmarkInfo(
        name="fib",
        structure="recursive-balanced",
        synchronization="none",
        paper_task_duration_us=1.37,
        paper_granularity="very fine",
        paper_scaling_std="fail",
        paper_scaling_hpx="to 10",
        description="Naive recursive Fibonacci",
    )

    # fib(21) creates 2*F(22)-1 = 35,421 tasks in the paper's shape;
    # n=19 keeps runs fast (13,529 tasks) at identical grain size.
    default_params = {"n": 19, "leaf_ns": 900, "combine_ns": 1250}
    param_minimums = {"n": 0, "leaf_ns": 0, "combine_ns": 0}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        return _fib_task, (params["n"], params["leaf_ns"], params["combine_ns"])

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        return result == fib_reference(params["n"])

    @staticmethod
    def task_count(n: int) -> int:
        """Number of tasks the call tree creates: 2*F(n+1) - 1."""
        return 2 * fib_reference(n + 1) - 1

    #: Fraction of the total task population simultaneously live under
    #: eager thread-per-task admission, calibrated against exact runs
    #: (n=12: 347/465 = 0.746, n=16: 2173/3193 = 0.680).
    LIVE_FRACTION = 0.7

    def cohort_plan(self, params: Mapping[str, Any]) -> CohortPlan:
        """Two cohorts: the internal spine, then the leaves.

        The call tree is perfectly homogeneous at each level kind:
        every internal node spawns two children, blocks on the first
        join (the second is ready under depth-first execution) and
        combines; every leaf only computes.  The internal cohort runs
        first so resource admission mirrors the exact engine, which
        builds the spine during descent — a memory-budget abort
        happens there, before any leaf retires.
        """
        n = int(params["n"])
        leaf_ns = int(params["leaf_ns"])
        combine_ns = int(params["combine_ns"])
        result = fib_reference(n)
        if n < 2:
            return CohortPlan(
                workload="fib",
                cohorts=(TaskCohort(label="fib-leaf", tasks=1, work=Work(leaf_ns)),),
                result=result,
            )
        leaves = fib_reference(n + 1)
        internal = leaves - 1
        total = internal + leaves
        live = max(1, round(self.LIVE_FRACTION * total))
        cohorts = (
            TaskCohort(
                label="fib-internal",
                tasks=internal,
                work=Work(combine_ns, membytes=192),
                spawns=2.0,
                ready_awaits=1.0,
                blocking_awaits=1.0,
                depth=max(1, n - 1),
                # Live figure for the whole descent (spine + frontier
                # leaves): eager backends commit it all here.
                live_tasks=live,
            ),
            TaskCohort(
                label="fib-leaves",
                tasks=leaves,
                work=Work(leaf_ns),
                depth=1,
                # Leaves are admitted lazily as parents reach them; the
                # descent's live population is booked on the internal
                # cohort above.
                live_tasks=1,
            ),
        )
        return CohortPlan(workload="fib", cohorts=cohorts, result=result)
