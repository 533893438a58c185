"""HPX-thread (task) objects and their life cycle.

State machine (matching HPX's thread states):

    PENDING --(worker picks)--> ACTIVE --(awaits/locks)--> SUSPENDED
    SUSPENDED --(future set / mutex granted)--> PENDING
    ACTIVE --(body returns)--> TERMINATED

Tasks created with the ``deferred`` policy start in DEFERRED and move to
ACTIVE directly when a waiter executes them inline.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator

from repro.model.future import SimFuture
from repro.runtime.policies import LaunchPolicy


class TaskState(enum.Enum):
    PENDING = "pending"  # staged in a queue, runnable
    DEFERRED = "deferred"  # not staged; runs inline at first wait
    ACTIVE = "active"  # executing on a worker
    SUSPENDED = "suspended"  # waiting on a future or mutex
    TERMINATED = "terminated"


# Hot-path aliases: one global load per task instead of two.
_DEFERRED = TaskState.DEFERRED
_PENDING = TaskState.PENDING
_POLICY_DEFERRED = LaunchPolicy.DEFERRED


class Task:
    """One lightweight HPX thread."""

    __slots__ = (
        "tid",
        "fn",
        "args",
        "policy",
        "future",
        "state",
        "parent_tid",
        "home_socket",
        "stack_bytes",
        "created_at",
        "gen",
        "exec_ns",
        "overhead_ns",
        "phases",
        "pending_send",
        "description",
        "staged_at",
    )

    def __init__(
        self,
        tid: int,
        fn: Callable[..., Any],
        args: tuple,
        policy: LaunchPolicy,
        parent_tid: int | None,
        home_socket: int,
        stack_bytes: int = 0,
        created_at: int = 0,
        description: str = "",
    ) -> None:
        self.tid = tid
        self.fn = fn
        self.args = args
        self.policy = policy
        self.future = SimFuture(self, tid)
        self.state = _DEFERRED if policy is _POLICY_DEFERRED else _PENDING
        self.parent_tid = parent_tid
        self.home_socket = home_socket
        self.stack_bytes = stack_bytes
        self.created_at = created_at
        self.gen: Generator | None = None  # created at first activation
        # Accounting backing the /threads/time/* counters.
        self.exec_ns = 0
        self.overhead_ns = 0
        self.phases = 0  # number of activations (HPX "thread phases")
        # Value to send into the generator at next resume.
        self.pending_send: Any = None
        self.description = description or getattr(fn, "__name__", "task")
        # Simulated time this task was last staged in a queue (None when
        # it never went through one, e.g. inline execution); backs the
        # /threads/wait-time/pending counter.
        self.staged_at: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.tid} {self.description} {self.state.value}>"
