"""Intersim — co-dependent network-interchange simulation.

Co-dependent with *multiple mutexes per task* (Table V: 3.46 µs
average, very fine; paper input: 1.7x10^6 tasks).  A set of shared
interchange points, each guarded by a mutex, is hammered by rounds of
small tasks: every task locks two interchanges (in ascending order —
no deadlock), moves traffic between them, and unlocks.  The final
traffic counts are exactly predictable, so the result verifies on any
runtime and core count.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.inncabs.base import Benchmark, BenchmarkInfo

TASK_NS = 3_000  # traffic-update compute per task


def _endpoints(round_idx: int, task_idx: int, k: int) -> tuple[int, int]:
    """The two interchanges task (round, idx) couples (deterministic)."""
    a = (task_idx * 7 + round_idx) % k
    b = (task_idx * 13 + round_idx * 5 + 1) % k
    if a == b:
        b = (b + 1) % k
    return (a, b) if a < b else (b, a)


def _intersim_task(ctx: Any, shared: dict, round_idx: int, task_idx: int, k: int):
    a, b = _endpoints(round_idx, task_idx, k)
    mutexes = shared["mutexes"]
    counts = shared["counts"]
    yield ctx.lock(mutexes[a])
    yield ctx.lock(mutexes[b])
    yield ctx.compute(TASK_NS, membytes=256)
    counts[a] += 1
    counts[b] += 1
    yield ctx.unlock(mutexes[b])
    yield ctx.unlock(mutexes[a])
    return None


def _intersim_root(ctx: Any, rounds: int, tasks_per_round: int, interchanges: int):
    shared = {
        "mutexes": [ctx.new_mutex() for _ in range(interchanges)],
        "counts": [0] * interchanges,
    }
    for round_idx in range(rounds):
        futures = []
        for task_idx in range(tasks_per_round):
            fut = yield ctx.async_(_intersim_task, shared, round_idx, task_idx, interchanges)
            futures.append(fut)
        yield ctx.wait_all(futures)
    return shared["counts"]


def intersim_reference(rounds: int, tasks_per_round: int, interchanges: int) -> list[int]:
    counts = [0] * interchanges
    for round_idx in range(rounds):
        for task_idx in range(tasks_per_round):
            a, b = _endpoints(round_idx, task_idx, interchanges)
            counts[a] += 1
            counts[b] += 1
    return counts


class IntersimBenchmark(Benchmark):
    info = BenchmarkInfo(
        name="intersim",
        structure="co-dependent",
        synchronization="mult. mutex/task",
        paper_task_duration_us=3.46,
        paper_granularity="very fine",
        paper_scaling_std="no scaling",
        paper_scaling_hpx="to 10",
        description="Mutex-coupled interchange simulation",
    )

    # 40 rounds x 160 tasks = 6,400 tasks over 24 interchanges.
    default_params = {"rounds": 40, "tasks_per_round": 160, "interchanges": 24}
    param_minimums = {"rounds": 0, "tasks_per_round": 0, "interchanges": 1}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        return _intersim_root, (
            params["rounds"],
            params["tasks_per_round"],
            params["interchanges"],
        )

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        return list(result) == intersim_reference(
            params["rounds"], params["tasks_per_round"], params["interchanges"]
        )
