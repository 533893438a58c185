"""Round — coarse-grained mutex ring.

Co-dependent with *two mutexes per task*, coarse grain (Table V:
9,671 µs average, 512 tasks — the coarsest benchmark of the suite).
Players sit in a ring, one mutex per seat; a task for player ``p`` in
round ``r`` locks seat ``p`` and its right neighbour (lowest-index
first to avoid deadlock), performs a long computation, exchanges
scores, and unlocks.  Rounds are joined barrier-style.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.model.work import Work

TASK_NS = 9_500_000  # ~9.5 ms of compute per task
TASK_MEMBYTES = 220_000


def _round_task(ctx: Any, shared: dict, round_idx: int, player: int, players: int):
    right = (player + 1) % players
    first, second = min(player, right), max(player, right)
    mutexes = shared["mutexes"]
    scores = shared["scores"]
    yield ctx.lock(mutexes[first])
    yield ctx.lock(mutexes[second])
    yield ctx.compute(Work(cpu_ns=TASK_NS, membytes=TASK_MEMBYTES))
    scores[player] += 2
    scores[right] += 1
    yield ctx.unlock(mutexes[second])
    yield ctx.unlock(mutexes[first])
    return None


def _round_root(ctx: Any, players: int, rounds: int):
    shared = {
        "mutexes": [ctx.new_mutex() for _ in range(players)],
        "scores": [0] * players,
    }
    for round_idx in range(rounds):
        futures = []
        for player in range(players):
            fut = yield ctx.async_(_round_task, shared, round_idx, player, players)
            futures.append(fut)
        yield ctx.wait_all(futures)
    return shared["scores"]


def round_reference(players: int, rounds: int) -> list[int]:
    scores = [0] * players
    for _ in range(rounds):
        for player in range(players):
            scores[player] += 2
            scores[(player + 1) % players] += 1
    return scores


class RoundBenchmark(Benchmark):
    info = BenchmarkInfo(
        name="round",
        structure="co-dependent",
        synchronization="2 mutex/task",
        paper_task_duration_us=9671.0,
        paper_granularity="coarse",
        paper_scaling_std="to 20",
        paper_scaling_hpx="to 20",
        description="Coarse-grained mutex ring exchange",
    )

    # 32 players x 16 rounds = 512 tasks, exactly the paper's count.
    default_params = {"players": 32, "rounds": 16}
    param_minimums = {"players": 2, "rounds": 0}  # a lone player locks one mutex twice

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        return _round_root, (params["players"], params["rounds"])

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        return list(result) == round_reference(params["players"], params["rounds"])
