"""The flat profile rows and the post-run profile report.

:class:`FunctionProfile` is one task body's row of the flat profile,
which :class:`~repro.profiler.builder.ProfileBuilder` folds live from
the trace hook and :func:`~repro.profiler.builder.build_profile`
rebuilds post mortem through the same fold.

:class:`RunProfile` is the immutable end product: flat profile,
critical path, parallelism summary and any what-if experiments, as
attached to :attr:`repro.api.RunResult.profile` and
printed by ``repro profile``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

from repro.profiler.analysis import CriticalStep, ParallelismPoint, parallelism_points
from repro.profiler.events import TaskEvent
from repro.profiler.whatif import WhatIfResult


@dataclass
class FunctionProfile:
    """Aggregate for one task body (the post-mortem 'function' row)."""

    name: str
    tasks: int = 0
    activations: int = 0
    busy_ns: int = 0

    @property
    def mean_task_ns(self) -> float:
        return self.busy_ns / self.tasks if self.tasks else 0.0


def render_profile(profiles: dict[str, FunctionProfile]) -> str:
    """Flat-profile text, busiest first."""
    rows = sorted(profiles.values(), key=lambda p: (-p.busy_ns, p.name))
    lines = [
        f"{'task body':30s} {'tasks':>8s} {'activations':>12s} {'busy ms':>10s} {'mean us':>9s}"
    ]
    for p in rows:
        lines.append(
            f"{p.name:30s} {p.tasks:8d} {p.activations:12d} "
            f"{p.busy_ns / 1e6:10.3f} {p.mean_task_ns / 1e3:9.2f}"
        )
    return "\n".join(lines)


@dataclass(frozen=True)
class ParallelismSummary:
    """Time-resolved logical parallelism of one run.

    ``mean`` is the time-weighted average number of simultaneously busy
    task bodies over the makespan; ``peak`` the maximum; ``deltas`` the
    raw ``(time_ns, ±1)`` busy-interval opens and closes, from which
    ``points``, the change-point series (the waterfall the Chrome-trace
    export draws), is built on first read.
    """

    mean: float
    peak: int
    deltas: tuple[tuple[int, int], ...] = field(default=(), repr=False)

    @cached_property
    def points(self) -> tuple[ParallelismPoint, ...]:
        return parallelism_points(self.deltas)


@dataclass(frozen=True)
class RunProfile:
    """The causal-profile report of one exact-mode run."""

    workload: str
    runtime: str
    cores: int
    makespan_ns: int
    work_ns: int
    span_ns: int
    tasks: int
    edges: int
    flat: tuple[FunctionProfile, ...]
    critical_path: tuple[CriticalStep, ...]
    critical_body_ns: tuple[tuple[str, int], ...]
    parallelism: ParallelismSummary
    what_if: tuple[WhatIfResult, ...] = ()
    trace_events: int = 0
    #: Raw event stream, only when profiling ran with ``keep_events``
    #: (feeds the Chrome-trace export; excluded from the JSON form).
    events: tuple[TaskEvent, ...] | None = field(default=None, repr=False, compare=False)

    @property
    def average_parallelism(self) -> float:
        """Brent's speedup ceiling T1/T∞."""
        return self.work_ns / self.span_ns if self.span_ns else 0.0

    @property
    def work_span_ratio(self) -> float:
        return self.average_parallelism

    def body_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.flat)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self, *, include_series: bool = False) -> dict[str, Any]:
        """Deterministic plain-dict form (campaign artifacts, ``--json``)."""
        out: dict[str, Any] = {
            "workload": self.workload,
            "runtime": self.runtime,
            "cores": self.cores,
            "makespan_ns": self.makespan_ns,
            "work_ns": self.work_ns,
            "span_ns": self.span_ns,
            "tasks": self.tasks,
            "edges": self.edges,
            "trace_events": self.trace_events,
            "average_parallelism": round(self.average_parallelism, 6),
            "parallelism": {
                "mean": round(self.parallelism.mean, 6),
                "peak": self.parallelism.peak,
            },
            "flat": [
                {
                    "name": p.name,
                    "tasks": p.tasks,
                    "activations": p.activations,
                    "busy_ns": p.busy_ns,
                }
                for p in self.flat
            ],
            "critical_path": [
                {"tid": s.tid, "body": s.description, "busy_ns": s.busy_ns}
                for s in self.critical_path
            ],
            "critical_body_ns": [[body, ns] for body, ns in self.critical_body_ns],
            "what_if": [w.to_json_dict() for w in self.what_if],
        }
        if include_series:
            out["parallelism"]["points"] = [
                [p.time_ns, p.active] for p in self.parallelism.points
            ]
        return out

    # -- rendering -------------------------------------------------------

    def render(self, *, top: int = 10) -> str:
        """Human-readable report (the ``repro profile`` output)."""
        lines = [
            f"profile: {self.workload} · {self.runtime} · {self.cores} cores",
            (
                f"makespan {self.makespan_ns / 1e6:.3f} ms   "
                f"work {self.work_ns / 1e6:.3f} ms   "
                f"span {self.span_ns / 1e6:.3f} ms   "
                f"parallelism {self.average_parallelism:.2f} "
                f"(mean active {self.parallelism.mean:.2f}, peak {self.parallelism.peak})"
            ),
            f"tasks {self.tasks}   edges {self.edges}   trace events {self.trace_events}",
            "",
            f"flat profile (top {min(top, len(self.flat))} of {len(self.flat)} bodies):",
            render_profile({p.name: p for p in self.flat[:top]}),
            "",
            f"critical path ({len(self.critical_path)} steps, "
            f"{sum(s.busy_ns for s in self.critical_path) / 1e6:.3f} ms):",
            _render_critical(self.critical_body_ns, self.span_ns),
        ]
        if self.what_if:
            lines.append("")
            lines.append("what-if experiments:")
            for w in self.what_if:
                lines.append("  " + w.render())
        return "\n".join(lines)


def _render_critical(critical_body_ns: Sequence[tuple[str, int]], span_ns: int) -> str:
    header = f"{'task body':30s} {'on-path ms':>11s} {'% of span':>10s}"
    rows = [header]
    for body, ns in critical_body_ns:
        pct = 100.0 * ns / span_ns if span_ns else 0.0
        rows.append(f"{body:30s} {ns / 1e6:11.3f} {pct:10.1f}")
    return "\n".join(rows)
