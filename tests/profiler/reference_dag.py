"""The reference DAG analysis: Kahn's walk over a recorded event list.

:func:`repro.profiler.analysis.analyze_dag` walks the task DAG once, in
the creation and termination orders the profiler's fold records.  This
module is the slower, order-free version it replaced: it rebuilds the
DAG from the raw events (spawn edges from ``create``, join edges from
``depend``, busy time from activate -> suspend/terminate intervals),
sorts it topologically with Kahn's algorithm and relaxes the longest
path with the same tie-breaks.  Any topological order gives the same
answer, so the two must agree on every field of the
:class:`~repro.profiler.analysis.DagAnalysis`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.profiler.analysis import CriticalStep, DagAnalysis
from repro.profiler.events import TaskEvent


def reference_analysis(
    events: Iterable[TaskEvent], scale: tuple[str, float] | None = None
) -> DagAnalysis:
    """The analysis of the DAG that *events* (in emission order) describe."""
    tids: set[int] = set()
    spawns: set[tuple[int, int]] = set()
    joins: set[tuple[int, int]] = set()
    description: dict[int, str] = {}
    busy: dict[int, int] = {}
    active: dict[int, int] = {}
    for e in events:
        if e.kind == "create":
            description[e.tid] = e.description
            tids.add(e.tid)
            if e.related is not None:
                tids.add(e.related)
                spawns.add((e.related, e.tid))
        elif e.kind == "depend" and e.related is not None:
            description.setdefault(e.tid, e.description)
            tids.update((e.tid, e.related))
            joins.add((e.related, e.tid))
        elif e.kind == "activate":
            active[e.tid] = e.time_ns
        elif e.kind in ("suspend", "terminate"):
            start = active.pop(e.tid, None)
            if start is not None:
                busy[e.tid] = busy.get(e.tid, 0) + e.time_ns - start
    return kahn_analysis(
        tids=tids, busy=busy, description=description, spawns=spawns, joins=joins, scale=scale
    )


def kahn_analysis(
    *,
    tids: set[int],
    busy: Mapping[int, int],
    description: Mapping[int, str],
    spawns: set[tuple[int, int]],
    joins: set[tuple[int, int]],
    scale: tuple[str, float] | None = None,
) -> DagAnalysis:
    """Longest path over the phase-split DAG in Kahn's topological order."""
    body, factor = scale if scale is not None else (None, None)

    def weight(tid: int) -> int:
        w = busy.get(tid, 0)
        if factor is not None and description.get(tid) == body:
            w = int(round(w * factor))
        return w

    if not tids:
        return DagAnalysis(
            work_ns=0, span_ns=0, tasks=0, edges=0, critical_path=(), critical_body_ns=()
        )

    # Node encoding: s(tid) = 2*tid, e(tid) = 2*tid+1.
    preds: dict[int, list[int]] = {}
    succs: dict[int, list[int]] = {}
    nodes: list[int] = []
    for tid in tids:
        s, e = 2 * tid, 2 * tid + 1
        nodes += (s, e)
        preds.setdefault(s, [])
        preds.setdefault(e, []).append(s)  # internal s -> e edge
        succs.setdefault(s, []).append(e)
        succs.setdefault(e, [])
    for parent, child in spawns:
        preds[2 * child].append(2 * parent)
        succs[2 * parent].append(2 * child)
    for producer, waiter in joins:
        preds[2 * waiter + 1].append(2 * producer + 1)
        succs[2 * producer + 1].append(2 * waiter + 1)

    dist: dict[int, int] = {}
    best_pred: dict[int, int | None] = {}
    order = _topological_order(nodes, preds, succs)
    for node in order:
        own = weight(node // 2) if node % 2 == 0 else 0
        best: int | None = None
        best_dist = 0
        for p in preds[node]:
            d = dist[p]
            if best is None or d > best_dist or (d == best_dist and p < best):
                best, best_dist = p, d
        dist[node] = best_dist + own
        best_pred[node] = best

    end: int | None = None
    span = 0
    for node in order:
        d = dist[node]
        if end is None or d > span or (d == span and node < end):
            end, span = node, d

    chain: list[int] = []
    node = end
    while node is not None:
        if node % 2 == 0:
            chain.append(node // 2)
        node = best_pred[node]
    chain.reverse()

    steps = tuple(
        CriticalStep(tid=tid, description=description.get(tid, "?"), busy_ns=weight(tid))
        for tid in chain
    )
    by_body: dict[str, int] = {}
    for step in steps:
        by_body[step.description] = by_body.get(step.description, 0) + step.busy_ns
    return DagAnalysis(
        work_ns=sum(weight(tid) for tid in tids),
        span_ns=span,
        tasks=len(tids),
        edges=len(spawns) + len(joins),
        critical_path=steps,
        critical_body_ns=tuple(sorted(by_body.items(), key=lambda kv: (-kv[1], kv[0]))),
    )


def _topological_order(
    nodes: Sequence[int], preds: Mapping[int, list[int]], succs: Mapping[int, list[int]]
) -> list[int]:
    """Kahn's algorithm; raises on cycles (a corrupt trace)."""
    indegree = {node: len(preds[node]) for node in nodes}
    ready = sorted(node for node in nodes if indegree[node] == 0)
    order: list[int] = []
    head = 0
    while head < len(ready):
        node = ready[head]
        head += 1
        order.append(node)
        for succ in succs[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(order) != len(nodes):
        raise ValueError("trace produced a cyclic dependency graph")
    return order
