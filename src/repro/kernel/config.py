"""Cost parameters of the kernel-thread (``std::async``) model.

Magnitudes are order-of-magnitude faithful to Linux on Ivy Bridge:
``pthread_create`` ≈ 10–25 µs, a kernel context switch ≈ 1–5 µs, a
futex block/wake pair ≈ 1–3 µs.  Contrast with the sub-microsecond
numbers in :class:`repro.runtime.config.HpxParams` — this three-orders-
of-magnitude gap is the entire story of the paper's fine-grained
results.

**Scaled memory budget.**  The paper's failing benchmarks die at
80,000–97,000 live pthreads (~62 GiB of committed thread state).  Our
benchmark inputs are scaled down ~30x (Python cannot simulate 10^7
task events per run), so the committed-memory budget for the
``std::async`` model is scaled by the same factor: ~3,000 live threads
(:func:`default_std_params`, every std run's default cost model).  The
*mechanism* — live-thread explosion in recursive/fine-grained
benchmarks under thread-per-task execution — is identical; only the
absolute numbers shrink.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Live threads at which the scaled std::async model aborts.
SCALED_THREAD_LIMIT = 3_000


@dataclass(frozen=True)
class StdParams:
    """Tunable costs (nanoseconds unless noted) of the kernel model."""

    # Thread life cycle; creation is charged inside the parent's body
    # (std::async returns only after the clone() call).
    thread_create_ns: int = 18_000
    thread_destroy_ns: int = 4_000

    # Dispatch costs.
    context_switch_ns: int = 2_500
    # Global run-queue lock: every dispatch/wake serializes on it for
    # this long.  This is the scalability wall that keeps the
    # fine-grained Standard versions from scaling — with N cores each
    # completing a task every few microseconds, the lock saturates and
    # throughput plateaus (paper: FFT 'to 6', Sort 'to 10').
    runqueue_hold_ns: int = 250
    # Serialized portion of clone(): the runqueue/mmap locks held while
    # creating a thread.
    create_hold_ns: int = 2_000

    # Scheduling quantum; longer compute segments are preempted when
    # other threads are runnable.
    time_slice_ns: int = 2_000_000

    # Synchronization (futex) costs.
    future_get_ready_ns: int = 80
    block_ns: int = 1_400
    wake_ns: int = 1_500
    mutex_ns: int = 100

    # Memory model: committed bytes per thread (stack pages actually
    # touched + kernel task_struct + TLS), and the budget available to
    # thread stacks.  The paper's node has 62 GiB; at ~700 KiB committed
    # per thread the Standard versions die at roughly 90 k live threads.
    # Runs use a proportionally scaled budget because benchmark inputs
    # are scaled down (see default_std_params below).
    thread_commit_bytes: int = 700 * 1024
    ram_budget_bytes: int = 62 * 1024**3

    # The kernel scheduler has no NUMA affinity for short-lived threads:
    # this fraction of a thread's memory traffic goes cross-socket when
    # it lands on a core in the other socket.
    cross_socket_data_fraction: float = 0.7

    @property
    def max_live_threads(self) -> int:
        """Live-thread count at which creation aborts the process."""
        return self.ram_budget_bytes // self.thread_commit_bytes


def default_std_params() -> StdParams:
    """Kernel-model parameters with the scaled memory budget."""
    base = StdParams()
    return StdParams(
        ram_budget_bytes=SCALED_THREAD_LIMIT * base.thread_commit_bytes,
    )
