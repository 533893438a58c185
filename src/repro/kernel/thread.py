"""Kernel thread objects.

One :class:`OSThread` is created per ``std::async`` call (plus the main
thread).  Unlike the HPX model, every thread exists in the kernel from
creation: it occupies committed memory and competes for the global run
queue whether or not it has ever run.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator

from repro.model.future import SimFuture


class ThreadState(enum.Enum):
    RUNNABLE = "runnable"  # in the run queue
    RUNNING = "running"  # on a core
    BLOCKED = "blocked"  # futex wait (future / mutex)
    DEFERRED = "deferred"  # std::launch::deferred — no thread yet
    TERMINATED = "terminated"


class OSThread:
    """One kernel thread executing one task body."""

    __slots__ = (
        "tid",
        "fn",
        "args",
        "future",
        "state",
        "home_socket",
        "created_at",
        "parent_tid",
        "staged_at",
        "gen",
        "pending_send",
        "preempted_work",
        "exec_ns",
        "overhead_ns",
        "slices",
        "description",
        "is_main",
        "committed",
    )

    def __init__(
        self,
        tid: int,
        fn: Callable[..., Any],
        args: tuple,
        *,
        home_socket: int,
        created_at: int,
        parent_tid: int | None = None,
        deferred: bool = False,
        is_main: bool = False,
    ) -> None:
        self.tid = tid
        self.fn = fn
        self.args = args
        self.future = SimFuture(self, tid)
        self.state = ThreadState.DEFERRED if deferred else ThreadState.RUNNABLE
        self.home_socket = home_socket
        self.created_at = created_at
        self.parent_tid = parent_tid
        # When the thread entered the run queue (backs the pending-wait
        # accounting); None while running/blocked.
        self.staged_at: int | None = None
        self.gen: Generator | None = None
        self.pending_send: Any = None
        # Remaining Work when the thread was preempted mid-segment.
        self.preempted_work: Any = None
        self.exec_ns = 0
        self.overhead_ns = 0
        self.slices = 0  # dispatches onto a core
        self.description = getattr(fn, "__name__", "thread")
        self.is_main = is_main
        # True once the kernel has committed stack/task_struct memory
        # for this thread (deferred children never commit).
        self.committed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OSThread {self.tid} {self.description} {self.state.value}>"
