"""NQueens — count all placements of N queens.

Recursive unbalanced, fine grain (Table V: 28.1 µs average).  Spawns a
task per valid placement down to a depth cutoff; below it each task
counts its subtree sequentially with the classic bitmask search, and
its cost is proportional to the *real* number of nodes it visited.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.model.population import CohortPlan, TaskCohort
from repro.model.work import Work

KNOWN_SOLUTIONS = {4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724, 11: 2680, 12: 14200}

NODE_NS = 160.0  # sequential search cost per visited node
SPAWN_NODE_NS = 900  # work done in a spawning (upper-level) task


def _count_sequential(n: int, cols: int, diag1: int, diag2: int) -> tuple[int, int]:
    """(solutions, nodes visited) below this position — bitmask search."""
    if cols == (1 << n) - 1:
        return 1, 1
    solutions = 0
    nodes = 1
    free = ~(cols | diag1 | diag2) & ((1 << n) - 1)
    while free:
        bit = free & -free
        free ^= bit
        s, k = _count_sequential(
            n, cols | bit, ((diag1 | bit) << 1) & ((1 << n) - 1), (diag2 | bit) >> 1
        )
        solutions += s
        nodes += k
    return solutions, nodes


def _nqueens_task(ctx: Any, n: int, depth: int, cols: int, diag1: int, diag2: int, cutoff: int):
    if depth >= cutoff:
        solutions, nodes = _count_sequential(n, cols, diag1, diag2)
        yield ctx.compute(Work(cpu_ns=round(nodes * NODE_NS), membytes=0))
        return solutions
    yield ctx.compute(SPAWN_NODE_NS)
    mask = (1 << n) - 1
    free = ~(cols | diag1 | diag2) & mask
    futures = []
    while free:
        bit = free & -free
        free ^= bit
        fut = yield ctx.async_(
            _nqueens_task,
            n,
            depth + 1,
            cols | bit,
            ((diag1 | bit) << 1) & mask,
            (diag2 | bit) >> 1,
            cutoff,
        )
        futures.append(fut)
    if not futures:
        return 1 if cols == mask else 0
    counts = yield ctx.wait_all(futures)
    return sum(counts)


def _nqueens_root(ctx: Any, n: int, cutoff: int):
    fut = yield ctx.async_(_nqueens_task, n, 0, 0, 0, 0, cutoff)
    return (yield ctx.wait(fut))


class NQueensBenchmark(Benchmark):
    info = BenchmarkInfo(
        name="nqueens",
        structure="recursive-unbalanced",
        synchronization="none",
        paper_task_duration_us=28.1,
        paper_granularity="fine",
        paper_scaling_std="fail",
        paper_scaling_hpx="to 20",
        description="Count all N-queens placements",
    )

    # n=12, spawn to depth 4: ~5,500 tasks, sequential subtrees below;
    # the spawned frontier exceeds the scaled thread budget under
    # std::async (paper: nqueens fails).
    default_params = {"n": 12, "cutoff": 4}
    param_minimums = {"n": 0, "cutoff": 0}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        return _nqueens_root, (params["n"], params["cutoff"])

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        expected = KNOWN_SOLUTIONS.get(params["n"])
        if expected is None:
            return isinstance(result, int) and result >= 0
        return result == expected

    def cohort_plan(self, params: Mapping[str, Any]) -> CohortPlan | None:
        """Two cohorts: the spawning upper tree, then the search leaves.

        The spawn tree is walked host-side to the cutoff (it is tiny —
        the exponential part lives below the cutoff, inside the leaves'
        sequential searches), so cohort population sizes match the
        exact engine's task counts bit-for-bit.  The tree is
        *unbalanced*: leaf costs vary with the real number of nodes
        each subtree search visits, and the cohort carries their mean —
        structural counters stay exact, time-like totals land within
        the documented mesoscale bounds.  ``n`` outside the known
        solution table has no plan (the plan's result must be exact).
        """
        n = int(params["n"])
        cutoff = int(params["cutoff"])
        if n not in KNOWN_SOLUTIONS:
            return None
        stats = _walk_spawn_tree(n, cutoff)
        # The root wrapper task spawns the depth-0 search task and
        # blocks on it; it rides in the spawner cohort (rates are
        # means, so the one computeless member just dilutes them).
        spawners = stats.internal + 1
        cohorts = [
            TaskCohort(
                label="nqueens-spawners",
                tasks=spawners,
                work=Work(round(stats.internal * SPAWN_NODE_NS / spawners)),
                spawns=(stats.children + 1) / spawners,
                # Depth-first joins: a task's first unfinished child
                # blocks it, the remaining wait_all members are ready.
                blocking_awaits=(stats.spawning + 1) / spawners,
                ready_awaits=(stats.children - stats.spawning) / spawners,
                depth=cutoff + 1,
                # Live figure for the whole descent (upper tree plus
                # the leaf frontier): eager backends commit it here.
                live_tasks=spawners + stats.leaves,
            )
        ]
        if stats.leaves:
            cohorts.append(
                TaskCohort(
                    label="nqueens-leaves",
                    tasks=stats.leaves,
                    work=Work(round(stats.leaf_ns / stats.leaves)),
                    depth=1,
                    # Leaves are admitted lazily as parents reach them;
                    # their live population is booked above.
                    live_tasks=1,
                )
            )
        return CohortPlan(
            workload="nqueens", cohorts=tuple(cohorts), result=KNOWN_SOLUTIONS[n]
        )


class _SpawnTreeStats:
    """Aggregates of the upper (spawning) nqueens tree, to the cutoff."""

    __slots__ = ("internal", "spawning", "children", "leaves", "leaf_ns")

    def __init__(self) -> None:
        self.internal = 0  # tasks above the cutoff (compute SPAWN_NODE_NS)
        self.spawning = 0  # internal tasks with at least one child
        self.children = 0  # spawn edges out of internal tasks
        self.leaves = 0  # cutoff tasks running the sequential search
        self.leaf_ns = 0  # summed per-leaf work, rounded like the exact path


def _walk_spawn_tree(n: int, cutoff: int) -> _SpawnTreeStats:
    """Enumerate the task tree exactly as ``_nqueens_task`` spawns it."""
    mask = (1 << n) - 1
    stats = _SpawnTreeStats()

    def walk(depth: int, cols: int, diag1: int, diag2: int) -> None:
        if depth >= cutoff:
            _solutions, nodes = _count_sequential(n, cols, diag1, diag2)
            stats.leaves += 1
            stats.leaf_ns += round(nodes * NODE_NS)
            return
        stats.internal += 1
        free = ~(cols | diag1 | diag2) & mask
        children = 0
        while free:
            bit = free & -free
            free ^= bit
            children += 1
            walk(depth + 1, cols | bit, ((diag1 | bit) << 1) & mask, (diag2 | bit) >> 1)
        if children:
            stats.spawning += 1
            stats.children += children

    walk(0, 0, 0, 0)
    return stats
