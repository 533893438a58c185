"""Floorplan — branch-and-bound rectangle placement with shared pruning.

Recursive unbalanced with *atomic pruning* (Table V: 4.60 µs average,
very fine).  Cells (rectangles with several legal shapes) are placed
one by one at candidate positions derived from already-placed corners;
the objective is the bounding-box area.  A mutex-protected shared best
prunes branches whose bound is already no better.

The paper notes this benchmark exposed an execution-order effect: the
``std::async`` single global queue pruned far earlier than HPX's
per-worker queues (two orders of magnitude fewer nodes), so a fixed
task limit was enforced for a fair comparison — reproduced here with
the ``task_limit`` parameter (spawning stops once the limit is hit and
subtrees run sequentially inside their task).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.model.work import Work

NODE_NS = 3_600  # per placement-node processing cost
LEAF_NODE_NS = 1_050  # per node in sequential subtrees

# Cell shapes: each cell may be placed as any (w, h) in its list.
DEFAULT_CELLS: tuple[tuple[tuple[int, int], ...], ...] = (
    ((4, 1), (1, 4), (2, 2)),
    ((3, 2), (2, 3)),
    ((5, 1), (1, 5)),
    ((2, 2),),
    ((3, 1), (1, 3)),
    ((2, 4), (4, 2)),
    ((1, 2), (2, 1)),
)

Rect = tuple[int, int, int, int]  # x, y, w, h


def _overlaps(rect: Rect, placed: tuple[Rect, ...]) -> bool:
    x, y, w, h = rect
    for px, py, pw, ph in placed:
        if x < px + pw and px < x + w and y < py + ph and py < y + h:
            return True
    return False


def _candidates(placed: tuple[Rect, ...]) -> list[tuple[int, int]]:
    """Candidate positions: origin plus right/top corners of placements."""
    if not placed:
        return [(0, 0)]
    positions = []
    for x, y, w, h in placed:
        positions.append((x + w, y))
        positions.append((x, y + h))
    # Deterministic order, deduplicated.
    return sorted(set(positions))


def _bbox_area(placed: tuple[Rect, ...]) -> int:
    if not placed:
        return 0
    xmax = max(x + w for x, y, w, h in placed)
    ymax = max(y + h for x, y, w, h in placed)
    return xmax * ymax


def solve_sequential(cells: tuple, depth: int, placed: tuple[Rect, ...], best: list[int]) -> int:
    """Exhaustive B&B below a task; returns nodes visited.

    ``best`` is the shared mutable bound (list of one int).  The same
    routine, started from an empty placement with a local bound, is the
    verification reference.
    """
    nodes = 1
    if depth == len(cells):
        area = _bbox_area(placed)
        if area < best[0]:
            best[0] = area
        return nodes
    for w, h in cells[depth]:
        for x, y in _candidates(placed):
            rect = (x, y, w, h)
            if _overlaps(rect, placed):
                continue
            trial = placed + (rect,)
            if _bbox_area(trial) >= best[0]:
                continue
            nodes += solve_sequential(cells, depth + 1, trial, best)
    return nodes


def floorplan_optimum(cells: tuple) -> int:
    """Sequential optimal bounding-box area."""
    best = [1 << 30]
    solve_sequential(cells, 0, (), best)
    return best[0]


def _floorplan_task(
    ctx: Any,
    shared: dict,
    cells: tuple,
    depth: int,
    placed: tuple[Rect, ...],
    cutoff: int,
    task_limit: int | None,
):
    mutex = shared["mutex"]
    yield ctx.compute(NODE_NS, membytes=128)
    if depth == len(cells):
        area = _bbox_area(placed)
        yield ctx.lock(mutex)
        if area < shared["best"][0]:
            shared["best"][0] = area
        yield ctx.unlock(mutex)
        return 1
    limit_hit = task_limit is not None and shared["tasks"] >= task_limit
    if depth >= cutoff or limit_hit:
        nodes = solve_sequential(cells, depth, placed, shared["best"])
        yield ctx.compute(Work(cpu_ns=nodes * LEAF_NODE_NS, membytes=64))
        return nodes
    futures = []
    for w, h in cells[depth]:
        for x, y in _candidates(placed):
            rect = (x, y, w, h)
            if _overlaps(rect, placed):
                continue
            trial = placed + (rect,)
            if _bbox_area(trial) >= shared["best"][0]:  # atomic read, no lock
                continue
            shared["tasks"] += 1
            fut = yield ctx.async_(
                _floorplan_task, shared, cells, depth + 1, trial, cutoff, task_limit
            )
            futures.append(fut)
    if not futures:
        return 1
    counts = yield ctx.wait_all(futures)
    return 1 + sum(counts)


def _floorplan_root(ctx: Any, cells: tuple, cutoff: int, task_limit: int | None):
    shared = {"best": [1 << 30], "mutex": ctx.new_mutex(), "tasks": 0}
    fut = yield ctx.async_(_floorplan_task, shared, cells, 0, (), cutoff, task_limit)
    nodes = yield ctx.wait(fut)
    return shared["best"][0], nodes


class FloorplanBenchmark(Benchmark):
    info = BenchmarkInfo(
        name="floorplan",
        structure="recursive-unbalanced",
        synchronization="atomic pruning",
        paper_task_duration_us=4.60,
        paper_granularity="very fine",
        paper_scaling_std="to 10",
        paper_scaling_hpx="to 10",
        description="Branch-and-bound rectangle placement",
    )

    default_params = {"cells": DEFAULT_CELLS, "cutoff": 5, "task_limit": None}
    param_minimums = {"cutoff": 0, "task_limit": 0}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        return _floorplan_root, (
            tuple(params["cells"]),
            params["cutoff"],
            params["task_limit"],
        )

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        area, nodes = result
        return area == floorplan_optimum(tuple(params["cells"])) and nodes > 0
