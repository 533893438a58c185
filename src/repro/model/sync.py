"""The mutex both runtimes share (``hpx::lcos::local::mutex`` / ``std::mutex``).

A contended lock blocks the acquiring task — an HPX task suspends, a
kernel thread futex-waits; that cost is the runtime's policy — and
unlock hands the mutex directly to the first waiter (FIFO).  The
Intersim/Round/Floorplan/QAP benchmarks use it.
"""

from __future__ import annotations

from collections import deque
from typing import Any


class Mutex:
    """FIFO-fair blocking mutex; *owner* and waiters are runtime tasks."""

    __slots__ = ("mid", "owner", "waiters", "acquisitions", "contentions")

    def __init__(self, mid: int) -> None:
        self.mid = mid
        self.owner: Any = None
        self.waiters: deque[Any] = deque()
        self.acquisitions = 0
        self.contentions = 0

    @property
    def locked(self) -> bool:
        return self.owner is not None

    def try_acquire(self, task: Any) -> bool:
        """Take the mutex if free; returns False (and queues nothing) if held."""
        if self.owner is None:
            self.owner = task
            self.acquisitions += 1
            return True
        return False

    def enqueue_waiter(self, task: Any) -> None:
        self.contentions += 1
        self.waiters.append(task)

    def release(self, task: Any) -> Any:
        """Release; returns the waiter that now owns the mutex (if any)."""
        if self.owner is not task:
            raise RuntimeError(f"task {task.tid} releasing mutex {self.mid} it does not own")
        if self.waiters:
            next_owner = self.waiters.popleft()
            self.owner = next_owner
            self.acquisitions += 1
            return next_owner
        self.owner = None
        return None
