"""Work/span, critical-path and parallelism analysis of the task DAG.

Pure-stdlib implementation of the classic fork/join analysis (networkx
is a test-only dependency; its version is the oracle in
``tests/trace/dag_oracle.py``): each task contributes an ``s``
(spawn-phase) node carrying its busy time and a zero-weight ``e``
(join-phase) node, spawn edges run parent-s → child-s, join edges
producer-e → waiter-e.
On that DAG:

- **work** ``T1`` is the total task busy time;
- **span** ``T∞`` is the longest weighted path — the critical path;
- **average parallelism** ``T1/T∞`` is Brent's speedup ceiling.

Task-level granularity slightly over-approximates the span of tasks
that interleave spawning with computing (exact for fork/join trees that
compute before spawning or after joining) — see ``docs/profiler.md``.

All tie-breaks are deterministic: the critical path prefers the
predecessor with the smallest node id among equals, and the path end is
the smallest node id among maxima, so equal traces always analyse to
the identical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Mapping


@dataclass(frozen=True)
class CriticalStep:
    """One task on the critical path, with its contributed busy time."""

    tid: int
    description: str
    busy_ns: int


@dataclass(frozen=True)
class ParallelismPoint:
    """One change point of the time-resolved parallelism profile."""

    time_ns: int
    active: int


@dataclass(frozen=True)
class DagAnalysis:
    """Work/span summary plus the extracted critical path."""

    work_ns: int
    span_ns: int
    tasks: int
    edges: int
    critical_path: tuple[CriticalStep, ...]
    #: Per-body attribution of the critical path, busiest first.
    critical_body_ns: tuple[tuple[str, int], ...]

    @property
    def average_parallelism(self) -> float:
        return self.work_ns / self.span_ns if self.span_ns else 0.0

    @property
    def critical_busy_ns(self) -> int:
        return sum(step.busy_ns for step in self.critical_path)


def analyze_dag(
    *,
    parents: Mapping[int, int | None],
    ended: Iterable[int],
    joins: Mapping[int, Collection[int]],
    busy: Mapping[int, int],
    description: Mapping[int, str],
    scale: tuple[str, float] | None = None,
) -> DagAnalysis:
    """Analyse the phase-split task DAG in one walk.

    *parents* maps every task of the DAG to its parent (``None`` for a
    root) in creation order, *ended* lists the terminated tasks in
    termination order and *joins* maps each waiter to its producers.
    Both orders are topological — a child is created after its parent,
    and a join's producer terminates before its waiter can be joined —
    so the s-nodes are walked in creation order, then the e-nodes in
    termination order, followed by those of the tasks still running.
    The tie-breaks below make the result the same for any topological
    order; a join whose producer is not yet walked is a corrupt trace.

    ``scale=(body, factor)`` re-weights every task of that body by
    *factor* before the longest-path computation — the virtual-speedup
    half of a what-if experiment.  ``factor=1.0`` reproduces the
    baseline analysis exactly (integer weights are untouched).
    """
    if not parents:
        return DagAnalysis(
            work_ns=0, span_ns=0, tasks=0, edges=0, critical_path=(), critical_body_ns=()
        )
    body, factor = scale if scale is not None else (None, None)

    # s(tid): its only predecessor is the parent's s-node.
    s_dist: dict[int, int] = {}
    work = spawns = 0
    for tid, parent in parents.items():
        w = busy.get(tid, 0)
        if factor is not None and description.get(tid) == body:
            w = int(round(w * factor))
        work += w
        if parent is None:
            s_dist[tid] = w
        else:
            s_dist[tid] = s_dist[parent] + w
            spawns += 1

    # e(tid), weight 0: the best of s(tid) and its producers' e-nodes,
    # the smallest node id among equals (s(t) = 2t, e(t) = 2t + 1).
    order = [tid for tid in ended if tid in s_dist]
    if len(order) < len(s_dist):
        done = set(order)
        order += [tid for tid in parents if tid not in done]
    e_dist: dict[int, int] = {}
    e_pred: dict[int, int] = {}
    for tid in order:
        best, dist = 2 * tid, s_dist[tid]
        for producer in joins.get(tid, ()):
            d = e_dist.get(producer)
            if d is None:
                raise ValueError(
                    f"trace is not in causal order: task {tid} joins task {producer} "
                    "before it terminated"
                )
            node = 2 * producer + 1
            if d > dist or (d == dist and node < best):
                best, dist = node, d
        e_dist[tid] = dist
        e_pred[tid] = best

    # The path end: the smallest node id among the longest distances
    # (an e-node is never shorter than its own s-node).
    span = max(e_dist.values())
    end = min(2 * t if s_dist[t] == span else 2 * t + 1 for t, d in e_dist.items() if d == span)
    chain: list[tuple[int, int]] = []  # (tid, weight) per s-node, from the end back
    cursor: int | None = end
    while cursor is not None:
        tid = cursor >> 1
        if cursor & 1:
            cursor = e_pred[tid]
        else:
            parent = parents[tid]
            above = 0 if parent is None else s_dist[parent]
            chain.append((tid, s_dist[tid] - above))
            cursor = None if parent is None else 2 * parent
    chain.reverse()

    steps = tuple(
        CriticalStep(tid=tid, description=description.get(tid, "?"), busy_ns=w) for tid, w in chain
    )
    by_body: dict[str, int] = {}
    for step in steps:
        by_body[step.description] = by_body.get(step.description, 0) + step.busy_ns

    return DagAnalysis(
        work_ns=work,
        span_ns=span,
        tasks=len(parents),
        edges=spawns + sum(map(len, joins.values())),
        critical_path=steps,
        critical_body_ns=tuple(sorted(by_body.items(), key=lambda kv: (-kv[1], kv[0]))),
    )


def parallelism_points(deltas: Iterable[tuple[int, int]]) -> tuple[ParallelismPoint, ...]:
    """Collapse raw ±1 interval deltas into profile change points.

    *deltas* come from the interval accumulator in event order (one
    ``+1`` per busy-interval open, one ``-1`` per close); simultaneous
    deltas merge into a single point carrying the settled count.
    """
    points: list[ParallelismPoint] = []
    active = 0
    last_time: int | None = None
    for time_ns, delta in deltas:
        active += delta
        if last_time == time_ns:
            points[-1] = ParallelismPoint(time_ns=time_ns, active=active)
        else:
            points.append(ParallelismPoint(time_ns=time_ns, active=active))
            last_time = time_ns
    return tuple(points)
