"""The C++11 Standard-library baseline: one OS thread per task.

Models the GCC libstdc++ behaviour the paper describes: ``std::async``
constructs, executes and destroys a kernel thread for every task.  The
kernel scheduler keeps a single global run queue, dispatches threads to
cores FIFO with a time-slice quantum, and charges realistic costs for
thread creation/destruction, context switches, futex block/wake pairs
and run-queue lock contention.  Per-thread committed memory is
accounted; exceeding the budget aborts the program — exactly how the
paper's Fib/Health/NQueens/UTS runs die with 80–97 k live pthreads.
"""

from repro.exec.errors import ResourceExhausted
from repro.kernel.config import StdParams
from repro.kernel.scheduler import StdRuntime
from repro.kernel.thread import OSThread, ThreadState

__all__ = [
    "OSThread",
    "ResourceExhausted",
    "StdParams",
    "StdRuntime",
    "ThreadState",
]
