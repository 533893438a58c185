"""QAP — quadratic assignment by branch-and-bound with atomic pruning.

Recursive unbalanced, very fine grain (Table V: 1.00 µs average).  The
paper could only run the smallest input (larger ones exceed memory);
accordingly the instance here is small (n=8 facilities/locations).
Facilities are assigned to locations depth-first; partial cost plus a
cheap lower bound prunes against a mutex-protected shared best.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from repro.inncabs.base import Benchmark, BenchmarkInfo
from repro.model.work import Work
from repro.simcore.rng import derive_rng

NODE_NS = 250
LEAF_NODE_NS = 32


def make_instance(n: int, seed: int) -> tuple[list[list[int]], list[list[int]]]:
    """Deterministic flow/distance matrices (symmetric, zero diagonal).

    Returned as plain nested lists: the branch-and-bound inner loop is
    scalar, and Python-list indexing is ~20x faster than numpy scalar
    indexing there.
    """
    rng = derive_rng(seed, "qap")
    flow = rng.integers(0, 10, size=(n, n))
    dist = rng.integers(1, 10, size=(n, n))
    flow = np.triu(flow, 1)
    flow = flow + flow.T
    dist = np.triu(dist, 1)
    dist = dist + dist.T
    return flow.tolist(), dist.tolist()


def _partial_cost_delta(
    flow: list, dist: list, perm: tuple[int, ...], facility: int, location: int
) -> int:
    """Cost added by assigning *facility* -> *location* given *perm*."""
    delta = 0
    for f, loc in enumerate(perm):
        delta += flow[f][facility] * dist[loc][location]
        delta += flow[facility][f] * dist[location][loc]
    return int(delta)


def solve_sequential(
    flow: list,
    dist: list,
    perm: tuple[int, ...],
    used: int,
    cost: int,
    best: list[int],
) -> int:
    """Sequential B&B below a node; returns nodes visited."""
    n = len(flow)
    depth = len(perm)
    nodes = 1
    if depth == n:
        if cost < best[0]:
            best[0] = cost
        return nodes
    for location in range(n):
        if used & (1 << location):
            continue
        delta = _partial_cost_delta(flow, dist, perm, depth, location)
        if cost + delta >= best[0]:
            continue
        nodes += solve_sequential(
            flow, dist, perm + (location,), used | (1 << location), cost + delta, best
        )
    return nodes


def qap_optimum(flow: list, dist: list) -> int:
    best = [1 << 60]
    solve_sequential(flow, dist, (), 0, 0, best)
    return best[0]


def _qap_task(
    ctx: Any,
    shared: dict,
    flow: list,
    dist: list,
    perm: tuple[int, ...],
    used: int,
    cost: int,
    cutoff: int,
):
    mutex = shared["mutex"]
    n = len(flow)
    depth = len(perm)
    yield ctx.compute(NODE_NS, membytes=96)
    if depth == n:
        yield ctx.lock(mutex)
        if cost < shared["best"][0]:
            shared["best"][0] = cost
        yield ctx.unlock(mutex)
        return 1
    if depth >= cutoff:
        nodes = solve_sequential(flow, dist, perm, used, cost, shared["best"])
        yield ctx.compute(Work(cpu_ns=nodes * LEAF_NODE_NS, membytes=64))
        return nodes
    futures = []
    for location in range(n):
        if used & (1 << location):
            continue
        delta = _partial_cost_delta(flow, dist, perm, depth, location)
        if cost + delta >= shared["best"][0]:  # atomic read
            continue
        fut = yield ctx.async_(
            _qap_task,
            shared,
            flow,
            dist,
            perm + (location,),
            used | (1 << location),
            cost + delta,
            cutoff,
        )
        futures.append(fut)
    if not futures:
        return 1
    counts = yield ctx.wait_all(futures)
    return 1 + sum(counts)


def _qap_root(ctx: Any, n: int, cutoff: int, seed: int):
    flow, dist = make_instance(n, seed)
    shared = {"best": [1 << 60], "mutex": ctx.new_mutex()}
    fut = yield ctx.async_(_qap_task, shared, flow, dist, (), 0, 0, cutoff)
    nodes = yield ctx.wait(fut)
    return shared["best"][0], nodes


class QapBenchmark(Benchmark):
    info = BenchmarkInfo(
        name="qap",
        structure="recursive-unbalanced",
        synchronization="atomic pruning",
        paper_task_duration_us=1.00,
        paper_granularity="very fine",
        paper_scaling_std="to 6",
        paper_scaling_hpx="to 4",
        description="Quadratic assignment problem (branch and bound)",
    )

    default_params = {"n": 8, "cutoff": 4}
    param_minimums = {"n": 0, "cutoff": 0}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        return _qap_root, (params["n"], params["cutoff"], params["seed"])

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        cost, nodes = result
        flow, dist = make_instance(params["n"], params["seed"])
        return cost == qap_optimum(flow, dist) and nodes > 0
