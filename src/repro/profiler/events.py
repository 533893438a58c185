"""The task-event model shared by the profiler and the legacy trace.

One :class:`TaskEvent` per task life-cycle transition, delivered by the
ProbeBus trace hook.  Recording has a cost: attaching a recorder or a
profiler adds :data:`TRACE_EVENT_NS` to the runtime's per-activation
instrumentation charge (``ProbeBus.instrument_ns``), paid once per task
activation on hpx and once per thread dispatch on std — not once per
delivered event.  Tracing perturbs the run it observes, like the
post-mortem tools the paper contrasts the counter framework with.

Busy-interval semantics (shared by every consumer in this package):
only ``activate`` opens a busy interval and ``suspend``/``terminate``
close it.  ``resume`` marks a task being re-staged onto a run queue —
execution resumes at the *next* ``activate`` — so it never opens an
interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Recording cost added to ``ProbeBus.instrument_ns`` while a recorder
#: or profiler is attached (buffer write + timestamp; post-mortem tools
#: pay at least this): charged once per hpx activation or std dispatch.
TRACE_EVENT_NS = 35

EVENT_KINDS = ("create", "activate", "suspend", "resume", "terminate", "depend")

#: Total-order rank for events sharing ``(time_ns, tid)``.  Interval
#: *closers* sort before *openers* so that a task which suspends and
#: re-activates at the same instant keeps both intervals (an
#: alphabetical kind sort would order ``activate`` before ``suspend``
#: and silently drop the busy time accumulated before the tie).
#: Structural events sit in between, matching emission order.
_KIND_RANK = {
    "suspend": 0,
    "terminate": 1,
    "depend": 2,
    "create": 3,
    "activate": 4,
    "resume": 5,
}


@dataclass(frozen=True)
class TaskEvent:
    """One recorded life-cycle transition.

    ``related`` carries structural context: the parent tid on
    ``create`` events, the producer tid on ``depend`` (join) events,
    None otherwise.
    """

    time_ns: int
    kind: str  # one of EVENT_KINDS
    tid: int
    description: str  # task body name
    worker: int | None  # executing worker, None for create/depend events
    related: int | None = None

    @property
    def parent_tid(self) -> int | None:
        """The parent tid of a ``create`` event, so that a recorded event
        can stand in for its task when a trace is replayed."""
        return self.related if self.kind == "create" else None


def event_sort_key(event: TaskEvent) -> tuple[int, int, int]:
    """The stable total sort key ``(time_ns, tid, kind-rank)``.

    Events are emitted in time order, so sorting by this key preserves
    the emission order everywhere it is semantically meaningful while
    making ties at the same ``(time_ns, tid)`` deterministic regardless
    of how the event list was assembled or concatenated.
    """
    return (event.time_ns, event.tid, _KIND_RANK[event.kind])


class TraceRecorder:
    """Collects the full event stream of one run.

    Attaches through :meth:`~repro.exec.probes.ProbeBus.subscribe_trace`
    so it composes with other trace consumers (e.g. a live
    :class:`~repro.profiler.builder.ProfileBuilder` on the same run).
    """

    def __init__(self, runtime: Any) -> None:
        self.runtime = runtime
        self.events: list[TaskEvent] = []
        self._attached = False

    # -- life cycle ----------------------------------------------------

    def attach(self) -> None:
        """Start recording (and start charging the recording cost)."""
        if self._attached:
            return
        self._attached = True
        self.runtime.probes.subscribe_trace(self._record)
        self.runtime.add_instrumentation(TRACE_EVENT_NS)

    def detach(self) -> None:
        if not self._attached:
            return
        self._attached = False
        self.runtime.probes.unsubscribe_trace(self._record)
        self.runtime.add_instrumentation(-TRACE_EVENT_NS)

    def __enter__(self) -> "TraceRecorder":
        self.attach()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.detach()

    # -- recording -------------------------------------------------------

    def _record(self, time_ns: int, kind: str, task: Any, worker: int | None) -> None:
        if kind == "depend":
            # The 4th hook argument is the producer tid for join edges.
            related: int | None = worker
            worker = None
        elif kind == "create":
            related = task.parent_tid
        else:
            related = None
        self.events.append(
            TaskEvent(
                time_ns=time_ns,
                kind=kind,
                tid=task.tid,
                description=task.description,
                worker=worker,
                related=related,
            )
        )

    # -- queries ------------------------------------------------------------

    def events_of_kind(self, kind: str) -> list[TaskEvent]:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}")
        return [e for e in self.events if e.kind == kind]

    def task_count(self) -> int:
        return len({e.tid for e in self.events})
