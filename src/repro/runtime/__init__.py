"""HPX-style task runtime.

A user-level thread scheduler in the spirit of HPX's thread manager:
lightweight tasks staged in per-worker deques (plain
``collections.deque``), executed depth-first (LIFO at the owner's end),
with thieves taking the oldest task from other workers (same socket
preferred), futures for synchronization and
the four launch policies the paper exercises (``async``, ``deferred``,
``fork``, ``sync``).

The thread manager keeps the exact accounting that backs the paper's
``/threads/...`` performance counters: per-task execution time, per-task
scheduling overhead, cumulative counts, queue lengths, steal counts and
per-worker idle time.
"""

from repro.exec.errors import DeadlockError
from repro.model.sync import Mutex
from repro.runtime.config import HpxParams
from repro.runtime.executors import AutoChunkSize, StaticChunkSize, for_each, transform_reduce
from repro.runtime.lcos import Barrier, Event, Latch, dataflow, then
from repro.runtime.policies import LaunchPolicy
from repro.runtime.scheduler import HpxRuntime
from repro.runtime.task import Task, TaskState

__all__ = [
    "AutoChunkSize",
    "Barrier",
    "DeadlockError",
    "Event",
    "HpxParams",
    "HpxRuntime",
    "Latch",
    "LaunchPolicy",
    "Mutex",
    "StaticChunkSize",
    "Task",
    "TaskState",
    "dataflow",
    "for_each",
    "then",
    "transform_reduce",
]
