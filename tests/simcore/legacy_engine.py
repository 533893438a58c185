"""Legacy discrete-event engine (pre two-tier queue): the test oracle.

The original binary-heap implementation, kept verbatim as the
reference the fast-path core in :mod:`repro.simcore.events` is checked
against: the queue-equivalence and engine-identity tests run it side by
side with the current engine and require bit-identical simulated
timestamps and counter values, and the CI replay-ratio step times both
engines on recorded event streams.  Do not optimise this module.

A minimal but strict event queue: events fire in (time, sequence) order,
where the sequence number is the order of scheduling.  Ties in time are
therefore resolved deterministically, which both runtimes rely on.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

Callback = Callable[[], Any]


def _bind(fn: Callable[..., Any], args: tuple) -> Callback:
    """Close over positional args (the legacy engine stores bare thunks)."""
    return lambda: fn(*args)


# Shared exception type: callers catch one class whichever engine runs.
from repro.simcore.events import SimulationError  # noqa: E402


class _Event:
    """A scheduled callback.  Cancellation is handled with a tombstone flag
    so that heap entries never need to be removed eagerly."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: int, seq: int, callback: Callback) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        """Timer-protocol compatibility (see :class:`repro.simcore.events.Timer`)."""
        return not self.cancelled

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<_Event t={self.time} seq={self.seq}{state}>"


class LegacyEventQueue:
    """A binary heap of :class:`_Event` objects ordered by (time, seq)."""

    def __init__(self) -> None:
        self._heap: list[_Event] = []
        self._seq = 0

    def __len__(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)

    def push(self, time: int, callback: Callback) -> _Event:
        """Schedule *callback* at absolute *time*; returns a cancellable handle."""
        event = _Event(time, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> _Event | None:
        """Pop the earliest live event, skipping tombstones.  None if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> int | None:
        """Earliest live event time, or None if the queue is empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None


class LegacyEngine:
    """The simulation driver.

    ``now`` is the current simulated time in nanoseconds.  ``run()``
    drains the event queue until it is empty, a registered stop
    condition fires, or the configured event budget is exhausted
    (protection against runaway simulations).
    """

    def __init__(self, *, max_events: int = 200_000_000) -> None:
        self.now: int = 0
        self.events_processed: int = 0
        self.max_events = max_events
        self._queue = LegacyEventQueue()
        self._stopped = False
        self._stop_reason: str | None = None

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: int, callback: Callback, *args: Any) -> _Event:
        """Schedule *callback* to run *delay* nanoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        if args:
            callback = _bind(callback, args)
        return self._queue.push(self.now + delay, callback)

    def schedule_at(self, time: int, callback: Callback, *args: Any) -> _Event:
        """Schedule *callback* at absolute simulated *time* (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        if args:
            callback = _bind(callback, args)
        return self._queue.push(time, callback)

    # The fast-path entry points of the current engine, aliased so the
    # optimised schedulers can drive this engine unchanged.  The heap
    # mechanics and the (time, seq) order are exactly the original's.
    call_later = schedule
    call_at = schedule_at

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
        return len(self._queue)

    def run(self, until: int | None = None) -> None:
        """Process events until the queue drains (or *until* is reached).

        The clock is left at the last processed event; it does not
        fast-forward to *until* when the queue drains early.
        """
        self._stopped = False
        self._stop_reason = None
        while not self._stopped:
            next_time = self._queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                break
            event = self._queue.pop()
            assert event is not None
            self.now = event.time
            self.events_processed += 1
            if self.events_processed > self.max_events:
                raise SimulationError(
                    f"event budget exhausted ({self.max_events} events) at t={self.now}ns"
                )
            event.callback()
