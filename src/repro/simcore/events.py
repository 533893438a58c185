"""Discrete-event engine: one binary heap of ``(time, seq, fn, args)`` tuples.

Events fire in strict ``(time, sequence)`` order, where the sequence
number is the order of scheduling.  Ties in time are therefore resolved
deterministically, which both runtimes rely on; the determinism
contract (identical virtual timestamps and counter values for identical
inputs) is load-bearing for the campaign result cache and for the
``repro compare`` regression gate.

The queue is a plain :mod:`heapq` list.  Sequence numbers are unique,
so a comparison of two entries is decided by ``time`` or ``seq`` and
never reaches the callback: every comparison is one of C ints.  The
simulator keeps its queue shallow, about one live event per worker (at
most 13 on the benchmark workloads, 29 for fib on std with 20 cores),
and at that depth a heap of tuples beats any bucketed structure whose
bookkeeping runs in Python.

Cancellation records the event's sequence number in a set.  The loop
looks in that set only while it is non-empty, and drops a cancelled
event when it reaches the top of the heap, so the live count
(``pending_events``) is the heap size minus the set size: O(1).

Handles: :meth:`Engine.schedule` / :meth:`Engine.schedule_at` return a
:class:`Timer` (``cancel`` / ``reschedule``), whose event goes through
the timer so that the handle knows when it has fired; fire-and-forget
callers use :meth:`Engine.call_later` / :meth:`Engine.call_at`, which
push the callback itself and allocate nothing but the tuple.
"""

from __future__ import annotations

from gc import disable as _gc_disable, enable as _gc_enable, isenabled as _gc_isenabled
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable

Callback = Callable[..., Any]


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class Timer:
    """Handle to one scheduled callback.

    The documented handle protocol: ``cancel()`` drops the event (it is
    skipped when it reaches the top of the queue), ``reschedule()``
    moves it to a new time — **re-sequencing it**: the event takes a
    fresh sequence number, i.e. it fires after anything already
    scheduled for the same timestamp.  ``active`` is True while the
    callback has neither fired nor been cancelled; ``time`` and ``seq``
    are the (time, sequence) the event is (or was last) set for.
    """

    __slots__ = ("_engine", "_fn", "_args", "time", "seq", "active")

    def __init__(self, engine: "Engine", time: int, fn: Callback, args: tuple) -> None:
        self._engine = engine
        self._fn = fn
        self._args = args
        self._arm(time)

    @property
    def cancelled(self) -> bool:
        """Backwards-compatible alias: True once no longer active."""
        return not self.active

    def cancel(self) -> None:
        """Drop the event; idempotent, and a no-op once it has fired."""
        if self.active:
            self.active = False
            self._engine._cancelled.add(self.seq)

    def reschedule(self, delay: int | None = None, *, at: int | None = None) -> "Timer":
        """Move the timer to ``now + delay`` (or absolute ``at``).

        Works on active and already-fired/cancelled timers alike (the
        latter is re-arming).  Returns ``self``.
        """
        if (delay is None) == (at is None):
            raise ValueError("reschedule needs exactly one of delay= or at=")
        now = self._engine.now
        if delay is not None:
            if delay < 0:
                raise SimulationError(f"negative delay: {delay}")
            at = now + delay
        elif at < now:
            raise SimulationError(f"cannot schedule in the past: {at} < {now}")
        self.cancel()
        self._arm(at)
        return self

    def _arm(self, time: int) -> None:
        engine = self._engine
        self.time = time
        self.seq = seq = engine._seq
        engine._seq = seq + 1
        self.active = True
        _heappush(engine._heap, (time, seq, self._fire, ()))

    def _fire(self) -> None:
        self.active = False
        self._fn(*self._args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "" if self.active else " dead"
        return f"<Timer t={self.time} seq={self.seq}{state}>"


class Engine:
    """The simulation driver.

    ``now`` is the current simulated time in nanoseconds.  ``run()``
    drains the event queue until it is empty, a registered stop
    condition fires, or the configured event budget is exhausted
    (protection against runaway simulations): the event past the
    budget is not dispatched and stays queued.
    """

    def __init__(self, *, max_events: int = 200_000_000) -> None:
        self.now: int = 0
        self.events_processed: int = 0
        self.max_events = max_events
        self._heap: list[tuple[int, int, Callback, tuple]] = []
        self._seq = 0
        self._cancelled: set[int] = set()  # seqs of cancelled events still queued
        self._stopped = False
        self._stop_reason: str | None = None

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: int, callback: Callback, *args: Any) -> Timer:
        """Schedule ``callback(*args)`` to run *delay* ns from now;
        returns a :class:`Timer` handle (cancel / reschedule)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return Timer(self, self.now + delay, callback, args)

    def schedule_at(self, time: int, callback: Callback, *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulated *time* (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        return Timer(self, time, callback, args)

    def call_later(self, delay: int, callback: Callback, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle.

        The hot path for scheduler primitives: one tuple pushed.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (self.now + delay, seq, callback, args))

    def call_at(self, time: int, callback: Callback, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (time, seq, callback, args))

    # -- control -------------------------------------------------------

    def stop(self, reason: str | None = None) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True
        self._stop_reason = reason

    @property
    def stop_reason(self) -> str | None:
        return self._stop_reason

    @property
    def pending_events(self) -> int:
        """Events scheduled and neither fired nor cancelled. O(1)."""
        return len(self._heap) - len(self._cancelled)

    def run(self, until: int | None = None) -> None:
        """Process events until the queue drains (or *until* is reached).

        The clock is left at the last processed event; it does not
        fast-forward to *until* when the queue drains early.
        """
        self._stopped = False
        self._stop_reason = None
        heap = self._heap
        cancelled = self._cancelled
        max_events = self.max_events
        # The dispatch counter runs in a local and is flushed on exit
        # (nothing reads ``events_processed`` mid-run).
        processed = self.events_processed
        # Pause cyclic GC while the loop runs: a simulation allocates large
        # task/generator/future graphs and collection passes over them are
        # pure overhead (refcounting still frees everything acyclic).
        gc_was_enabled = _gc_isenabled()
        if gc_was_enabled:
            _gc_disable()
        try:
            while heap and not self._stopped:
                time, seq, fn, args = _heappop(heap)
                if cancelled and seq in cancelled:
                    cancelled.remove(seq)
                    continue
                if until is not None and time > until:
                    _heappush(heap, (time, seq, fn, args))  # unchanged: same seq
                    break
                if processed >= max_events:
                    _heappush(heap, (time, seq, fn, args))  # refused, so still queued
                    raise SimulationError(
                        f"event budget exhausted ({max_events} events) at t={time}ns"
                    )
                self.now = time
                processed += 1
                fn(*args)
        finally:
            self.events_processed = processed
            if gc_was_enabled:
                _gc_enable()
