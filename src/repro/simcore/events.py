"""Discrete-event engine — the fast-path event core.

Events fire in strict ``(time, sequence)`` order, where the sequence
number is the order of scheduling.  Ties in time are therefore resolved
deterministically, which both runtimes rely on; the determinism
contract (identical virtual timestamps and counter values for identical
inputs) is load-bearing for the campaign result cache and for the
``repro compare`` regression gate.

The queue is two-tier:

- a **calendar ring** of per-nanosecond slots covering the near
  future ``[floor, floor + RING_SLOTS)`` — the dominant
  ``schedule(now+δ)`` case (context switches, steals, notifications,
  short compute segments) lands in a slot in O(1).  A slot holds the
  entry itself while it has exactly one event (the common case at
  shallow queue depth) and is promoted to a bucket list on the first
  same-timestamp collision.  Occupancy is indexed by a min-heap of the
  *distinct* populated slot times: plain ints compared in C, at most
  one heap operation per slot (not per event).  Within the window the
  slot↔time mapping is bijective, so a slot never mixes timestamps;
- a binary **heap spillover** for far-future events (long compute
  segments, periodic queries).  Heap items are the entry lists
  themselves, compared element-wise on ``(time, seq)`` in C.

Entries are 5-slot lists ``[time, seq, fn, args, state]`` recycled
through a free list; cancellation tombstones an entry in place
(``state = 0``) and the live count is maintained incrementally, so
``__len__`` is O(1).  Tombstones are skipped at dispatch and the
spillover heap is compacted lazily once more than half of it is dead.
The run loop dispatches whole same-timestamp batches: one next-time
computation per batch instead of a peek + pop pair per event.

Handles: :meth:`Engine.schedule` / :meth:`Engine.schedule_at` return a
:class:`Timer` (``cancel`` / ``reschedule``); fire-and-forget callers
use :meth:`Engine.call_later` / :meth:`Engine.call_at`, which skip the
handle allocation and let the entry be recycled.
"""

from __future__ import annotations

from gc import disable as _gc_disable, enable as _gc_enable, isenabled as _gc_isenabled
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from typing import Any, Callable

Callback = Callable[..., Any]

# Near-future horizon of the calendar ring, in nanoseconds (one slot per
# nanosecond).  Scheduler primitives cost 50–3000 ns, so almost every
# event lands in the ring; multi-microsecond compute segments spill to
# the heap.  Must be a power of two.
RING_SLOTS = 1 << 13
_RING_MASK = RING_SLOTS - 1

# Entry state values (index 4 of an entry list).
_DEAD = 0  # fired or cancelled — skipped at dispatch
_PENDING = 1  # live, no handle outstanding — recycled after firing
_OWNED = 2  # live, a Timer holds it — never recycled

_FREE_CAP = 2048  # max recycled entries / buckets kept around


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class Timer:
    """Handle to one scheduled callback.

    The documented handle protocol: ``cancel()`` tombstones the event
    (it will be skipped at dispatch), ``reschedule()`` moves it to a new
    time — **re-sequencing it**: the event takes a fresh sequence
    number, i.e. it fires after anything already scheduled for the same
    timestamp.  ``active`` is True while the callback has neither fired
    nor been cancelled.  Callers must use this protocol instead of
    reaching into queue internals.
    """

    __slots__ = ("_queue", "_entry")

    def __init__(self, queue: "EventQueue", entry: list) -> None:
        self._queue = queue
        self._entry = entry

    @property
    def time(self) -> int:
        """Absolute simulated time this timer is (or was) set for."""
        return self._entry[0]

    @property
    def seq(self) -> int:
        """Scheduling sequence number (the tie-break within a timestamp)."""
        return self._entry[1]

    @property
    def active(self) -> bool:
        """True until the callback fires or the timer is cancelled."""
        return self._entry[4] != _DEAD

    @property
    def cancelled(self) -> bool:
        """Backwards-compatible alias: True once no longer active."""
        return self._entry[4] == _DEAD

    @property
    def callback(self) -> Callback:
        """The scheduled callable (without its bound arguments)."""
        return self._entry[2]

    def cancel(self) -> None:
        """Tombstone the event; it will be skipped when its time comes."""
        self._queue._cancel(self._entry)

    def reschedule(self, delay: int | None = None, *, at: int | None = None) -> "Timer":
        """Move the timer to ``now + delay`` (or absolute ``at``).

        Works on active and already-fired/cancelled timers alike (the
        latter is re-arming).  Returns ``self``.
        """
        if (delay is None) == (at is None):
            raise ValueError("reschedule needs exactly one of delay= or at=")
        queue = self._queue
        now = queue._now()
        time = now + delay if delay is not None else at
        if time < now:
            raise SimulationError(f"cannot schedule in the past: {time} < {now}")
        if delay is not None and delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        entry = self._entry
        if entry[4] != _DEAD:
            queue._cancel(entry)
        self._entry = queue._push(time, entry[2], entry[3], _OWNED)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "" if self.active else " dead"
        return f"<Timer t={self._entry[0]} seq={self._entry[1]}{state}>"


class EventQueue:
    """Two-tier (calendar ring + heap) queue of ``(time, seq)``-ordered
    events with O(1) live count and free-listed entries."""

    __slots__ = (
        "_ring",
        "_ring_times",
        "_heap",
        "_seq",
        "_live",
        "_floor",
        "_free",
        "_heap_dead",
        "engine",
    )

    def __init__(self) -> None:
        # A ring cell is None (empty), a bare entry (one event at that
        # time — the shallow-queue fast path), or a bucket list of
        # entries (same-timestamp collision).  The two non-None shapes
        # are both lists; ``type(cell[0]) is int`` distinguishes an
        # entry (cell[0] is its time) from a bucket (cell[0] is an
        # entry).  Buckets are never empty.
        self._ring: list[list | None] = [None] * RING_SLOTS
        self._ring_times: list[int] = []  # min-heap of populated slot times
        self._heap: list[list] = []  # far-future spillover
        self._seq = 0
        self._live = 0  # pending (non-tombstoned) entries
        self._floor = 0  # lower bound of the ring window
        self._free: list[list] = []  # recycled entries
        self._heap_dead = 0  # tombstones currently in the spillover heap
        self.engine: "Engine | None" = None  # backref set by Engine

    # -- public API --------------------------------------------------------

    def __len__(self) -> int:
        """Number of live (non-cancelled, not yet fired) events. O(1)."""
        return self._live

    def push(self, time: int, callback: Callback, *args: Any) -> Timer:
        """Schedule *callback* at absolute *time*; returns a cancellable
        :class:`Timer` handle."""
        return Timer(self, self._push(time, callback, args, _OWNED))

    def pop(self) -> Timer | None:
        """Pop the earliest live event, skipping tombstones.  None if empty.

        Compatibility path (the engine dispatches whole batches); the
        returned :class:`Timer` is already dead — it reports the popped
        event's ``time``/``seq``/``callback``.
        """
        while True:
            batch = self._take_batch(None)
            if batch is None:
                return None
            if type(batch[0]) is int:  # singleton entry, already live
                batch[4] = _DEAD
                self._live -= 1
                return Timer(self, batch)
            time = batch[0][0]
            first = None
            rest: list[list] = []
            for i, entry in enumerate(batch):
                if entry[4] != _DEAD:
                    first = entry
                    rest = batch[i + 1 :]
                    break
            if first is None:  # all tombstones: skip past them
                continue
            self._live -= 1
            first[4] = _DEAD
            if rest:
                self._requeue(time, rest)
            return Timer(self, first)

    def peek_time(self) -> int | None:
        """Earliest live event time, or None if the queue is empty."""
        while True:
            heap = self._heap
            while heap and heap[0][4] == _DEAD:
                _heappop(heap)
                if self._heap_dead:
                    self._heap_dead -= 1
            heap_t = heap[0][0] if heap else None
            ring_times = self._ring_times
            ring_t = ring_times[0] if ring_times else None
            if ring_t is None:
                return heap_t  # may be None: queue empty
            if heap_t is not None and heap_t < ring_t:
                return heap_t
            cell = self._ring[ring_t & _RING_MASK]
            if type(cell[0]) is int:  # singleton entry
                if cell[4] != _DEAD:
                    return ring_t
            else:
                for entry in cell:
                    if entry[4] != _DEAD:
                        return ring_t
            # All-tombstone cell: drop it and look again.
            _heappop(ring_times)
            self._ring[ring_t & _RING_MASK] = None

    # -- internals ---------------------------------------------------------

    def _now(self) -> int:
        return self.engine.now if self.engine is not None else self._floor

    def _push(self, time: int, fn: Callback, args: tuple, state: int) -> list:
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = time
            entry[1] = self._seq
            entry[2] = fn
            entry[3] = args
            entry[4] = state
        else:
            entry = [time, self._seq, fn, args, state]
        self._seq += 1
        self._live += 1
        if 0 <= time - self._floor < RING_SLOTS:
            slot = time & _RING_MASK
            cell = self._ring[slot]
            if cell is None:
                self._ring[slot] = entry
                _heappush(self._ring_times, time)
            elif type(cell[0]) is int:  # singleton entry: promote to bucket
                self._ring[slot] = [cell, entry]
            else:
                cell.append(entry)
        else:
            _heappush(self._heap, entry)
        return entry

    def _cancel(self, entry: list) -> None:
        if entry[4] == _DEAD:
            return
        entry[4] = _DEAD
        self._live -= 1
        # We do not know which tier holds the entry; assume the heap for
        # compaction accounting (ring tombstones are bounded by the ring
        # horizon and cleaned up at dispatch anyway).
        self._heap_dead += 1
        heap = self._heap
        if self._heap_dead > 64 and self._heap_dead * 2 > len(heap):
            live = [e for e in heap if e[4] != _DEAD]
            if len(live) != len(heap):
                _heapify(live)
                self._heap = live
            self._heap_dead = 0

    def _take_batch(self, until: int | None) -> list | None:
        """Detach everything at the earliest pending timestamp.

        Returns either a single *live* entry (singleton fast path) or a
        non-empty entry list in seq order (tombstones included — all
        entries share ``entry[0]``, the batch time); the two shapes are
        distinguished by ``type(result[0]) is int``.  Returns None when
        the queue is empty or the next time exceeds *until*.  Advances
        the ring window floor to the batch time.
        """
        while True:
            ring_times = self._ring_times
            ring_t = ring_times[0] if ring_times else None
            heap = self._heap
            if heap:
                top = heap[0]
                while top[4] == _DEAD:
                    _heappop(heap)
                    if self._heap_dead:
                        self._heap_dead -= 1
                    if not heap:
                        top = None
                        break
                    top = heap[0]
                heap_t = top[0] if top is not None else None
            else:
                heap_t = None
            if ring_t is None:
                if heap_t is None:
                    return None
                time = heap_t
            elif heap_t is None or ring_t <= heap_t:
                time = ring_t
            else:
                time = heap_t
            if until is not None and time > until:
                return None
            batch: list | None = None
            if ring_t == time:
                _heappop(ring_times)
                slot = time & _RING_MASK
                cell = self._ring[slot]
                self._ring[slot] = None
                if type(cell[0]) is int:  # singleton entry
                    if heap_t != time:
                        if time > self._floor:
                            self._floor = time
                        if cell[4] != _DEAD:
                            return cell
                        continue  # lone tombstone: keep searching
                    batch = [cell]
                else:
                    batch = cell
            if heap_t == time:
                spill: list[list] = []
                while heap and heap[0][0] == time:
                    entry = _heappop(heap)
                    if entry[4] == _DEAD:
                        if self._heap_dead:
                            self._heap_dead -= 1
                        continue
                    spill.append(entry)
                if batch is None:
                    batch = spill
                elif spill:
                    batch.extend(spill)
                    batch.sort(key=_entry_seq)
            # The floor is monotonic: a heap entry below it (pushed for a
            # time before the window's lower bound) dispatches from the
            # heap without retracting the ring window — moving the floor
            # backward would re-admit times that alias with an occupied
            # future slot (T and T + RING_SLOTS sharing a cell).
            if time > self._floor:
                self._floor = time
            if batch:
                return batch
            # Nothing live at this timestamp; keep searching.

    def _requeue(self, time: int, entries: list[list]) -> None:
        """Put not-yet-dispatched batch entries back (stop/error paths).

        They keep their original seq, so they still fire before anything
        scheduled at the same time during the partial dispatch.
        """
        live = [e for e in entries if e[4] != _DEAD]
        if not live:
            return
        if not 0 <= time - self._floor < RING_SLOTS:
            # Below the (monotonic) ring window — e.g. a partially
            # consumed heap batch: back to the spillover heap.
            for entry in live:
                _heappush(self._heap, entry)
            return
        slot = time & _RING_MASK
        cell = self._ring[slot]
        if cell is None:
            # Slot was detached with the batch; re-register its time.
            _heappush(self._ring_times, time)
        elif type(cell[0]) is int:  # singleton scheduled during dispatch
            live.append(cell)
        else:
            live.extend(cell)
        self._ring[slot] = live


def _entry_seq(entry: list) -> int:
    return entry[1]


class Engine:
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
        self._queue = EventQueue()
        self._queue.engine = self
        self._stopped = False
        self._stop_reason: str | None = None

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: int, callback: Callback, *args: Any) -> Timer:
        """Schedule ``callback(*args)`` to run *delay* ns from now;
        returns a :class:`Timer` handle (cancel / reschedule)."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        queue = self._queue
        return Timer(queue, queue._push(self.now + delay, callback, args, _OWNED))

    def schedule_at(self, time: int, callback: Callback, *args: Any) -> Timer:
        """Schedule ``callback(*args)`` at absolute simulated *time* (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        queue = self._queue
        return Timer(queue, queue._push(time, callback, args, _OWNED))

    def call_later(self, delay: int, callback: Callback, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, entry recycled.

        The hot path for scheduler primitives — skips the Timer
        allocation and lets the queue reuse the entry's storage.  The
        push is inlined (one Python call per event, not two).
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        queue = self._queue
        time = self.now + delay
        free = queue._free
        if free:
            entry = free.pop()
            entry[0] = time
            entry[1] = queue._seq
            entry[2] = callback
            entry[3] = args
            entry[4] = _PENDING
        else:
            entry = [time, queue._seq, callback, args, _PENDING]
        queue._seq += 1
        queue._live += 1
        if 0 <= time - queue._floor < RING_SLOTS:
            slot = time & _RING_MASK
            cell = queue._ring[slot]
            if cell is None:
                queue._ring[slot] = entry
                _heappush(queue._ring_times, time)
            elif type(cell[0]) is int:  # singleton entry: promote to bucket
                queue._ring[slot] = [cell, entry]
            else:
                cell.append(entry)
        else:
            _heappush(queue._heap, entry)

    def call_at(self, time: int, callback: Callback, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at` (same inlined push)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        queue = self._queue
        free = queue._free
        if free:
            entry = free.pop()
            entry[0] = time
            entry[1] = queue._seq
            entry[2] = callback
            entry[3] = args
            entry[4] = _PENDING
        else:
            entry = [time, queue._seq, callback, args, _PENDING]
        queue._seq += 1
        queue._live += 1
        if 0 <= time - queue._floor < RING_SLOTS:
            slot = time & _RING_MASK
            cell = queue._ring[slot]
            if cell is None:
                queue._ring[slot] = entry
                _heappush(queue._ring_times, time)
            elif type(cell[0]) is int:  # singleton entry: promote to bucket
                queue._ring[slot] = [cell, entry]
            else:
                cell.append(entry)
        else:
            _heappush(queue._heap, entry)

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
        return self._queue._live

    def run(self, until: int | None = None) -> None:
        """Process events until the queue drains (or *until* is reached).

        The clock is left at the last processed event; it does not
        fast-forward to *until* when the queue drains early.  Events
        sharing a timestamp are dispatched as one batch, in scheduling
        order; events scheduled *at the current timestamp* by a batch
        member join the next batch (still strictly (time, seq) ordered).
        """
        self._stopped = False
        self._stop_reason = None
        queue = self._queue
        take_batch = queue._take_batch
        max_events = self.max_events
        free = queue._free
        ring = queue._ring
        ring_times = queue._ring_times
        no_until = until is None
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
            while not self._stopped:
                # Inlined fast path: the next timestamp is a lone ring
                # singleton and the spillover heap is not competing for
                # it (an entry dead at the heap top with time <= t still
                # takes the general path, which skims tombstones).
                if ring_times:
                    t = ring_times[0]
                    heap = queue._heap
                    if (not heap or heap[0][0] > t) and (no_until or t <= until):
                        slot = t & _RING_MASK
                        cell = ring[slot]
                        if type(cell[0]) is int:
                            _heappop(ring_times)
                            ring[slot] = None
                            queue._floor = t
                            entry = cell
                            state = entry[4]
                            if state == _DEAD:
                                continue
                            entry[4] = _DEAD
                            queue._live -= 1
                            self.now = t
                            processed += 1
                            if processed > max_events:
                                raise SimulationError(
                                    f"event budget exhausted ({max_events} events) "
                                    f"at t={self.now}ns"
                                )
                            fn = entry[2]
                            args = entry[3]
                            if state == _PENDING and len(free) < _FREE_CAP:
                                entry[3] = None  # drop the args reference early
                                free.append(entry)
                            fn(*args)
                            continue
                batch = take_batch(until)
                if batch is None:
                    break
                if type(batch[0]) is int:  # singleton live entry
                    entry = batch
                    state = entry[4]
                    entry[4] = _DEAD
                    queue._live -= 1
                    self.now = entry[0]
                    processed += 1
                    if processed > max_events:
                        raise SimulationError(
                            f"event budget exhausted ({max_events} events) at t={self.now}ns"
                        )
                    fn = entry[2]
                    args = entry[3]
                    if state == _PENDING and len(free) < _FREE_CAP:
                        entry[3] = None  # drop the args reference early
                        free.append(entry)
                    fn(*args)
                    continue
                time = batch[0][0]
                index = 0
                size = len(batch)
                try:
                    while index < size:
                        entry = batch[index]
                        index += 1
                        state = entry[4]
                        if state == _DEAD:
                            continue
                        entry[4] = _DEAD
                        queue._live -= 1
                        self.now = time
                        processed += 1
                        if processed > max_events:
                            raise SimulationError(
                                f"event budget exhausted ({max_events} events) at t={self.now}ns"
                            )
                        fn = entry[2]
                        args = entry[3]
                        if state == _PENDING and len(free) < _FREE_CAP:
                            entry[3] = None  # drop the args reference early
                            free.append(entry)
                        fn(*args)
                        if self._stopped:
                            break
                except BaseException:
                    queue._requeue(time, batch[index:])
                    raise
                if index < size:  # stopped mid-batch
                    queue._requeue(time, batch[index:])
        finally:
            self.events_processed = processed
            if gc_was_enabled:
                _gc_enable()
