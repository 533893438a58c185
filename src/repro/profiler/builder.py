"""The streaming profile builder: trace hook in, task DAG out.

:class:`ProfileBuilder` subscribes to the runtime's ProbeBus trace hook
(composing with any other subscriber, e.g. a plain
:class:`~repro.profiler.events.TraceRecorder`) and folds each event,
in the one call the hook makes, into everything the analysis layer
needs:

- the task DAG structure: spawn edges from ``create`` events and join
  edges from ``depend`` events, mirroring the node/edge universe of the
  legacy networkx extraction exactly.  The fold also keeps the two
  orders the run itself gives, which are topological: tasks in the
  order they were created (a parent before its children) and in the
  order they terminated (a join's producer before its waiter), so the
  analysis walks the DAG once, without sorting it;
- per-task and per-body busy aggregates (the flat profile; the
  post-mortem :func:`build_profile` replays a recorded event list
  through this same fold);
- the ±1 interval deltas behind the time-resolved parallelism profile,
  with its peak;
- optionally the raw event list (``keep_events=True``) for
  Chrome-trace export.

Like tracing, profiling perturbs: attaching charges
:data:`~repro.profiler.events.TRACE_EVENT_NS` of instrumentation to
the runtime, paid once per task activation (hpx) or thread dispatch
(std), so a profiled run is *not* bit-identical to an unprofiled one.
A what-if replay pays the same charge without a builder (see
:meth:`repro.api.Session.run`), so baseline and replay run under
identical instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.profiler.analysis import (
    DagAnalysis,
    ParallelismPoint,
    analyze_dag,
    parallelism_points,
)
from repro.profiler.events import TRACE_EVENT_NS, TaskEvent, event_sort_key
from repro.profiler.report import FunctionProfile, ParallelismSummary, RunProfile
from repro.profiler.whatif import WhatIfResult, WhatIfSpec


@dataclass(frozen=True)
class ProfileConfig:
    """How :meth:`repro.api.Session.run` should profile a run.

    ``profile=True`` is shorthand for the defaults; ``what_if`` lists
    causal experiments to replay after the profiled run; and
    ``keep_events`` retains the raw event stream on the resulting
    :class:`~repro.profiler.report.RunProfile` (needed for Chrome-trace
    export, costs memory proportional to the event count).
    """

    what_if: tuple[WhatIfSpec, ...] = ()
    keep_events: bool = False

    @classmethod
    def coerce(cls, value: "ProfileConfig | bool | None") -> "ProfileConfig | None":
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        return value


class ProfileBuilder:
    """Incremental task-DAG and profile state for one run.

    Busy-interval semantics: only ``activate`` opens an interval;
    ``suspend``/``terminate`` close it (``resume`` is queue re-staging,
    not execution).  An ``activate`` on an already-open task restarts
    its interval, and a close without an open interval is ignored.
    """

    def __init__(self, runtime: Any, *, keep_events: bool = False) -> None:
        self.runtime = runtime
        # The flat profile and the busy-interval state.
        self._profiles: dict[str, FunctionProfile] = {}
        self._busy: dict[int, int] = {}
        self._total_busy_ns = 0
        self._active: dict[int, int] = {}
        #: (time_ns, ±1) per interval open/close, in event order.
        self._deltas: list[tuple[int, int]] = []
        self._change_ns: int | None = None
        self._peak = 0
        # The DAG: every task with its parent, in creation order; the
        # terminated tasks in termination order; each waiter's producers.
        self._parents: dict[int, int | None] = {}
        self._ended: list[int] = []
        self._joins: dict[int, set[int]] = {}
        self._descriptions: dict[int, str] = {}
        self._events: list[TaskEvent] | None = [] if keep_events else None
        self._event_count = 0
        self._attached = False
        self._analysis_cache: tuple[int, DagAnalysis] | None = None

    # -- life cycle ------------------------------------------------------

    def attach(self) -> None:
        """Subscribe to the trace hook and start charging the profiler's cost."""
        if self._attached:
            return
        self._attached = True
        self.runtime.probes.subscribe_trace(self._on_event)
        self.runtime.add_instrumentation(TRACE_EVENT_NS)

    def detach(self) -> None:
        if not self._attached:
            return
        self._attached = False
        self.runtime.probes.unsubscribe_trace(self._on_event)
        self.runtime.add_instrumentation(-TRACE_EVENT_NS)

    def __enter__(self) -> "ProfileBuilder":
        self.attach()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.detach()

    # -- the trace hook --------------------------------------------------

    def _on_event(self, time_ns: int, kind: str, task: Any, aux: int | None) -> None:
        """Fold one event.  *aux* is the worker, or the producer tid of a ``depend``."""
        self._event_count += 1
        if self._events is not None:
            self._events.append(_task_event(time_ns, kind, task, aux))
        description = task.description
        profile = self._profiles.get(description)
        if profile is None:
            profile = self._profiles[description] = FunctionProfile(description)
        tid = task.tid
        if kind == "activate":
            active = self._active
            if tid not in active:
                if time_ns != self._change_ns:  # the previous change point settled
                    if len(active) > self._peak:
                        self._peak = len(active)
                    self._change_ns = time_ns
                self._deltas.append((time_ns, 1))
                if tid not in self._busy:  # a task leaves `active` only into `_busy`
                    profile.tasks += 1
            active[tid] = time_ns
            profile.activations += 1
        elif kind == "suspend" or kind == "terminate":
            active = self._active
            start = active.get(tid)
            if start is not None:
                if time_ns != self._change_ns:
                    if len(active) > self._peak:
                        self._peak = len(active)
                    self._change_ns = time_ns
                del active[tid]
                busy = time_ns - start
                profile.busy_ns += busy
                self._busy[tid] = self._busy.get(tid, 0) + busy
                self._total_busy_ns += busy
                self._deltas.append((time_ns, -1))
            if kind == "terminate":
                self._ended.append(tid)
        elif kind == "create":
            parents = self._parents
            parent = task.parent_tid
            if parent is not None and parent not in parents:
                parents[parent] = None
            parents[tid] = parent
            self._descriptions[tid] = description
        elif kind == "depend" and aux is not None:
            parents = self._parents
            if tid not in parents:
                parents[tid] = None
                self._descriptions[tid] = description
            if aux not in parents:
                parents[aux] = None
            producers = self._joins.get(tid)
            if producers is None:
                self._joins[tid] = {aux}
            else:
                producers.add(aux)

    # -- live views (the /profiler counters read these) ------------------

    @property
    def event_count(self) -> int:
        return self._event_count

    @property
    def work_ns(self) -> int:
        """Total busy time closed so far, across all profiled tasks."""
        return self._total_busy_ns

    @property
    def active_count(self) -> int:
        """Task bodies busy right now — instantaneous logical parallelism."""
        return len(self._active)

    @property
    def profiles(self) -> dict[str, FunctionProfile]:
        """The flat profile so far: {task body name: aggregate}."""
        return self._profiles

    def body_busy_ns(self, body: str) -> int:
        profile = self._profiles.get(body)
        return profile.busy_ns if profile is not None else 0

    def body_names(self) -> tuple[str, ...]:
        return tuple(self._profiles)

    # -- analysis --------------------------------------------------------

    def analysis(self) -> DagAnalysis:
        """Work/span/critical-path of the DAG built so far (cached)."""
        cached = self._analysis_cache
        if cached is not None and cached[0] == self._event_count:
            return cached[1]
        result = self._analyze(scale=None)
        self._analysis_cache = (self._event_count, result)
        return result

    def scaled_analysis(self, body: str, factor: float) -> DagAnalysis:
        """The DAG re-analysed with *body* weights scaled (what-if)."""
        return self._analyze(scale=(body, factor))

    def _analyze(self, *, scale: tuple[str, float] | None) -> DagAnalysis:
        return analyze_dag(
            parents=self._parents,
            ended=self._ended,
            joins=self._joins,
            busy=self._busy,
            description=self._descriptions,
            scale=scale,
        )

    def parallelism(self) -> tuple[ParallelismPoint, ...]:
        return parallelism_points(self._deltas)

    # -- the report ------------------------------------------------------

    def finalize(
        self,
        *,
        workload: str,
        runtime: str,
        cores: int,
        makespan_ns: int,
        what_if: tuple[WhatIfResult, ...] = (),
    ) -> RunProfile:
        """Freeze the builder state into the post-run report."""
        analysis = self.analysis()
        mean = self._total_busy_ns / makespan_ns if makespan_ns else 0.0
        peak = max(self._peak, len(self._active))  # the last change point settles now
        flat = tuple(sorted(self._profiles.values(), key=lambda p: (-p.busy_ns, p.name)))
        return RunProfile(
            workload=workload,
            runtime=runtime,
            cores=cores,
            makespan_ns=makespan_ns,
            work_ns=analysis.work_ns,
            span_ns=analysis.span_ns,
            tasks=analysis.tasks,
            edges=analysis.edges,
            flat=flat,
            critical_path=analysis.critical_path,
            critical_body_ns=analysis.critical_body_ns,
            parallelism=ParallelismSummary(mean=mean, peak=peak, deltas=tuple(self._deltas)),
            what_if=what_if,
            trace_events=self._event_count,
            events=tuple(self._events) if self._events is not None else None,
        )


def _task_event(time_ns: int, kind: str, task: Any, aux: int | None) -> TaskEvent:
    """The recorded form of one hook call (``keep_events``)."""
    if kind == "depend":
        worker, related = None, aux
    elif kind == "create":
        worker, related = aux, task.parent_tid
    else:
        worker, related = aux, None
    return TaskEvent(
        time_ns=time_ns,
        kind=kind,
        tid=task.tid,
        description=task.description,
        worker=worker,
        related=related,
    )


def build_profile(trace: Any) -> dict[str, FunctionProfile]:
    """Flat profile of a recorded trace: {task body name: aggregate}.

    Busy time is the sum of activate->(suspend|terminate) intervals —
    the same quantity the ``/threads/time/*`` counters measure live,
    but reconstructed after the fact from the event stream, through
    the live builder's own fold (each :class:`TaskEvent` stands in for
    its task).  Events are replayed in the stable total order of
    :func:`~repro.profiler.events.event_sort_key`, so ties at the same
    ``(time_ns, tid)`` aggregate deterministically.
    """
    events: Iterable[TaskEvent] = trace.events if hasattr(trace, "events") else trace
    fold = ProfileBuilder(None)
    for event in sorted(events, key=event_sort_key):
        aux = event.related if event.kind == "depend" else event.worker
        fold._on_event(event.time_ns, event.kind, event, aux)
    return fold.profiles
