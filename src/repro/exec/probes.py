"""The instrumentation probe bus: one measurement spine for all backends.

Schedulers account their work into plain typed probe objects
(:class:`WorkerProbe` per worker/core, :class:`SchedulerProbe` totals)
and publish them on a :class:`ProbeBus`.  Everything that *observes*
execution — the performance-counter framework, the task-event trace
recorder, the experiment metrics — reads from the bus, never from
scheduler internals, so a counter written once works against every
:class:`~repro.exec.backend.SchedulerBackend`.

The bus also carries the two instrumentation channels the paper
quantifies:

- ``instrument_ns`` — per-activation cost charged while counters are
  active (timestamping / PAPI reads in the scheduler hot path);
- ``trace`` — the task life-cycle hook (``create`` / ``activate`` /
  ``suspend`` / ``resume`` / ``terminate`` / ``depend``) behind
  :mod:`repro.profiler`.

Both are a single attribute load on the dispatch path when inactive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

#: ``trace(time_ns, kind, task, aux)`` — *aux* is the executing worker
#: index for life-cycle events and the producer tid for ``depend``.
TraceHook = Callable[[int, str, Any, "int | None"], None]


@dataclass(slots=True)
class WorkerProbe:
    """Per-worker accounting (backs the worker-thread counter instances)."""

    exec_ns: int = 0
    overhead_ns: int = 0
    busy_ns: int = 0
    tasks_executed: int = 0
    steals_attempted: int = 0
    steals_ok: int = 0
    steals_cross_socket: int = 0


@dataclass(slots=True)
class SchedulerProbe:
    """Global accounting (backs the ``total`` counter instances)."""

    tasks_created: int = 0
    tasks_executed: int = 0
    exec_ns: int = 0  # cumulative task execution time
    overhead_ns: int = 0  # cumulative scheduling overhead
    phases: int = 0
    live_tasks: int = 0
    peak_live_tasks: int = 0
    suspended_tasks: int = 0  # instantaneous: waiting on futures/mutexes
    pending_wait_ns: int = 0  # cumulative staged->activated wait time
    pending_waits: int = 0  # activations that came through a queue


@dataclass(slots=True)
class KernelProbe(SchedulerProbe):
    """Kernel-model totals: the shared probe plus OS-level extras."""

    committed_bytes: int = 0
    dispatches: int = 0
    preemptions: int = 0
    blocks: int = 0
    wakes: int = 0


class ProbeBus:
    """The backend's published measurement surface.

    Holds the total probe, the per-worker probes, the trace hook and
    the per-activation instrumentation charge.  The scheduler keeps
    direct references to the probes for its hot-path increments; the
    bus is how everything else finds them.
    """

    __slots__ = ("total", "workers", "trace", "instrument_ns", "_trace_hooks")

    def __init__(self, total: SchedulerProbe, workers: Iterable[WorkerProbe]) -> None:
        self.total = total
        self.workers: list[WorkerProbe] = list(workers)
        self.trace: TraceHook | None = None
        self.instrument_ns = 0
        self._trace_hooks: tuple[TraceHook, ...] = ()

    # -- instrumentation charge ------------------------------------------

    def add_instrumentation(self, delta_ns: int) -> None:
        """Register (positive) or remove (negative) per-activation
        instrumentation cost; called by counter ``start``/``stop``."""
        self.instrument_ns = max(0, self.instrument_ns + delta_ns)

    # -- trace subscription ------------------------------------------------

    def subscribe_trace(self, hook: TraceHook) -> None:
        """Attach *hook* alongside any other subscribed trace hooks.

        Unlike a direct ``bus.trace = hook`` assignment (which replaces
        whatever was attached), subscribing composes: every subscribed
        hook sees every event, in subscription order.  The composed
        dispatch is folded back into the single ``trace`` slot so the
        scheduler hot path stays one attribute load — zero subscribers
        is ``None``, one subscriber is the bare hook, several become one
        fan-out closure.  A later direct assignment overrides the
        composition until the next (un)subscribe; don't mix the styles
        on one bus.
        """
        if hook in self._trace_hooks:
            raise ValueError("trace hook is already subscribed")
        self._trace_hooks = self._trace_hooks + (hook,)
        self._compose_trace()

    def unsubscribe_trace(self, hook: TraceHook) -> None:
        """Detach a hook previously attached with :meth:`subscribe_trace`."""
        if hook not in self._trace_hooks:
            raise ValueError("trace hook is not subscribed")
        self._trace_hooks = tuple(h for h in self._trace_hooks if h != hook)
        self._compose_trace()

    def _compose_trace(self) -> None:
        hooks = self._trace_hooks
        if not hooks:
            self.trace = None
        elif len(hooks) == 1:
            self.trace = hooks[0]
        else:

            def fan_out(
                time_ns: int,
                kind: str,
                task: Any,
                aux: int | None,
                _hooks: tuple[TraceHook, ...] = hooks,
            ) -> None:
                for hook in _hooks:
                    hook(time_ns, kind, task, aux)

            self.trace = fan_out

    # -- trace emission ----------------------------------------------------

    def emit(self, time_ns: int, kind: str, task: Any, aux: int | None) -> None:
        """Deliver one life-cycle event to the trace hook, if attached."""
        hook = self.trace
        if hook is not None:
            hook(time_ns, kind, task, aux)

    def emit_dependencies(self, time_ns: int, waiter: Any, futures: Sequence[Any]) -> None:
        """Emit join edges (producer -> waiter) for satisfied futures.

        The hook's 4th argument carries the *producer tid* for
        ``depend`` events (it is the worker index for the life-cycle
        events).  The backends call this only while a hook is attached.
        """
        hook = self.trace
        if hook is None:
            return
        waiter_tid = waiter.tid
        for fut in futures:
            tid = fut.producer_tid
            if tid is not None and tid != waiter_tid:
                hook(time_ns, "depend", waiter, tid)

    # -- derived views -----------------------------------------------------

    def busy_ns(self, index: int | None = None) -> int:
        """Cumulative busy time of one worker, or of all workers."""
        if index is None:
            return sum(w.busy_ns for w in self.workers)
        return self.workers[index].busy_ns
