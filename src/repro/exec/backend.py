"""The scheduler base class both runtimes subclass.

A backend splits into *mechanics* and *policy*.  The effect interpreter
(:class:`repro.exec.interp.EffectInterpreter`) resumes task coroutines;
:class:`SchedulerBackend` owns every scheduler mechanic the runtimes
share — the probe bus, the live-task table, driving a run, the ready
fast paths of the waits, the ``AwaitAll`` countdown, the mutex, and one
retirement path — so a subclass keeps only its policy: where a task
goes, what each action costs, how blocking and waking work, and how it
books its totals.

``repro.runtime.scheduler.HpxRuntime`` and
``repro.kernel.scheduler.StdRuntime`` are the two subclasses; see
``docs/backends.md`` for what a third one implements.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.exec.errors import DeadlockError, ResourceExhausted, TaskFailed, format_stall
from repro.exec.interp import EffectInterpreter, WorkRewriter
from repro.exec.probes import ProbeBus, SchedulerProbe
from repro.model.effects import Await, AwaitAll, Lock, Unlock
from repro.model.future import FutureState, SimFuture, resume_payload, resume_payload_all
from repro.model.population import TaskCohort
from repro.model.sync import Mutex
from repro.model.work import Work

_NOT_READY = FutureState.NOT_READY  # hot-path alias (one global load)


class SchedulerBackend:
    """Shared scheduler mechanics; a subclass supplies the policy hooks.

    *worker* and *task* are the subclass's own objects (the HPX backend
    passes its worker and ``Task``, the kernel backend its core and
    ``OSThread``).  The base reads a small surface of them: a worker's
    ``index`` and ``stats`` (a :class:`~repro.exec.probes.WorkerProbe`);
    a task's ``tid``, ``state``, ``future`` and ``pending_send``.  The
    subclass also implements the effect handlers the base leaves to
    policy (``do_compute``, ``do_spawn``, ``do_yield``) and the counter
    sources ``queue_length()`` and ``worker_queue_length(index)``.
    """

    #: Short runtime name ("hpx", "std", ...), shown in results.
    name = ""
    #: What stall diagnostics call a task ("task", "thread").
    noun = "task"
    #: The subclass's task states: not yet run (executes inline at its
    #: first wait) and blocked on a future or mutex.
    DEFERRED: Any = None
    SUSPENDED: Any = None
    #: True once the simulated process died (resource exhaustion).
    aborted = False
    #: Human-readable reason when ``aborted``.
    abort_reason: str | None = None

    def __init__(
        self, engine: Any, machine: Any, params: Any, workers: list[Any], total: SchedulerProbe
    ) -> None:
        self.engine = engine
        self.machine = machine
        self.params = params
        #: Per-worker views in worker-index order; each has ``stats``,
        #: ``core_index`` and ``socket`` (how counters address workers).
        self.workers = workers
        self.probes = ProbeBus(total, [w.stats for w in workers])
        self.stats = total
        self._interp = EffectInterpreter(self)
        self._step = self._interp.step
        self._live: dict[int, Any] = {}  # tid -> task, until retirement
        self._next_tid = 0
        self._next_mid = 0
        # Worker whose task is settling its future: the waker of every
        # waiter that settlement wakes (None outside retirement).
        self._fulfil_worker: Any = None
        # The task whose body first raised each exception, by its id: a
        # waiting parent that does not catch re-raises the same object.
        self._raised_by: dict[int, tuple[BaseException, str]] = {}

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    # -- instrumentation ---------------------------------------------------

    def add_instrumentation(self, delta_ns: int) -> None:
        """Register (positive) or remove (negative) per-activation
        instrumentation cost; called by counter ``start``/``stop``."""
        self.probes.add_instrumentation(delta_ns)

    @property
    def instrument_ns(self) -> int:
        """Per-activation instrumentation charge (lives on the probe bus)."""
        return self.probes.instrument_ns

    def set_compute_rewriter(self, rewriter: WorkRewriter | None) -> None:
        """Install (or remove) a what-if work rewriter on the effect loop
        (see :meth:`repro.exec.interp.EffectInterpreter.set_compute_rewriter`)."""
        self._interp.set_compute_rewriter(rewriter)

    # -- driving -----------------------------------------------------------

    def submit(self, fn: Callable[..., Any], *args: Any) -> SimFuture:
        """Policy: stage a root task; returns its future."""
        raise NotImplementedError

    def run_to_completion(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Submit *fn*, run the engine until quiescence, return its value."""
        future = self.submit(fn, *args)
        self.engine.run()
        if self.aborted:
            raise ResourceExhausted(self.abort_reason or "out of memory")
        if not future.is_ready:
            raise DeadlockError(self.describe_stall())
        return future.value()

    def describe_stall(self) -> str:
        """Diagnostic naming the unfinished tasks (deadlock reports)."""
        return format_stall(list(self._live.values()), now_ns=self.engine.now, noun=self.noun)

    def create_mutex(self) -> Mutex:
        """A mutex usable with the ``Lock``/``Unlock`` effects."""
        mutex = Mutex(self._next_mid)
        self._next_mid += 1
        return mutex

    # -- counter sources ---------------------------------------------------

    def idle_rate(self, worker_index: int | None = None) -> float:
        """Fraction of wall time not spent busy, in [0, 1]."""
        wall: int = self.engine.now
        if wall <= 0:
            return 0.0
        if worker_index is None:
            return max(0.0, 1.0 - self.probes.busy_ns() / (wall * len(self.workers)))
        return max(0.0, 1.0 - self.probes.busy_ns(worker_index) / wall)

    def steals_total(self) -> int:
        """Tasks stolen across all workers (0 without work stealing)."""
        return sum(p.steals_ok for p in self.probes.workers)

    # -- interpreter hooks and the shared effect handlers ------------------

    def begin_step(self, worker: Any, task: Any) -> bool:
        """Gate one interpreter step: nothing runs once the process aborted."""
        return not self.aborted

    def do_await(self, worker: Any, task: Any, effect: Await) -> None:
        future = effect.future
        if future.state is not _NOT_READY:
            cost = self.params.future_get_ready_ns
            self._charge_exec(worker, task, cost)
            if self.probes.trace is not None:
                self.probes.emit_dependencies(self.engine.now, task, (future,))
            self.engine.call_later(cost, self._step, worker, task, resume_payload(future))
            return
        producer = future.producer_task
        if producer is not None and producer.state is self.DEFERRED:
            self._run_deferred(worker, task, producer, None)
            return
        self._block(worker, task)
        future.on_ready(lambda fut: self._joined(task, (fut,), resume_payload(fut)))

    def do_await_all(self, worker: Any, task: Any, effect: AwaitAll) -> None:
        futures = effect.futures
        pending = [f for f in futures if f.state is _NOT_READY]
        for fut in pending:
            producer = fut.producer_task
            if producer is not None and producer.state is self.DEFERRED:
                # One deferred producer at a time; the wait is re-issued
                # once it has run.
                self._run_deferred(worker, task, producer, futures)
                return
        if not pending:
            cost = self.params.future_get_ready_ns
            self._charge_exec(worker, task, cost)
            if self.probes.trace is not None:
                self.probes.emit_dependencies(self.engine.now, task, futures)
            self.engine.call_later(cost, self._step, worker, task, resume_payload_all(futures))
            return
        self._block(worker, task)
        remaining = len(pending)

        def one_ready(_fut: SimFuture) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                self._joined(task, futures, resume_payload_all(futures))

        for fut in pending:
            fut.on_ready(one_ready)

    def _joined(self, task: Any, futures: Sequence[Any], payload: Any) -> None:
        """Every future a blocked *task* waits on is ready: wake it."""
        if self.probes.trace is not None:
            self.probes.emit_dependencies(self.engine.now, task, futures)
        self._wake(self._fulfil_worker, task, payload)

    def do_lock(self, worker: Any, task: Any, effect: Lock) -> None:
        mutex = effect.mutex
        if mutex.try_acquire(task):
            cost = self.params.mutex_ns
            self._charge_exec(worker, task, cost)
            self.engine.call_later(cost, self._step, worker, task, None)
            return
        self._block(worker, task)
        mutex.enqueue_waiter(task)

    def do_unlock(self, worker: Any, task: Any, effect: Unlock) -> None:
        next_owner = effect.mutex.release(task)
        cost = self.params.mutex_ns
        self._charge_exec(worker, task, cost)
        if next_owner is not None:
            self._wake(worker, next_owner, None)  # it already owns the mutex
        self.engine.call_later(cost, self._step, worker, task, None)

    def complete(self, worker: Any, task: Any, value: Any) -> None:
        """The task body returned *value*: retire it, fulfil its future."""
        self._retire(worker, task, task.future.set_value, value)

    def fail(self, worker: Any, task: Any, exc: BaseException) -> None:
        """The task body raised: retire it, propagate through its future."""
        self._raised_by.setdefault(id(exc), (exc, f"task {task.tid} {task.description}"))
        self._retire(worker, task, task.future.set_exception, exc)

    def task_failed(self, exc: BaseException) -> TaskFailed:
        """The error naming the task whose body raised *exc* (raise it
        ``from exc``)."""
        raised = self._raised_by.get(id(exc))
        who = raised[1] if raised is not None and raised[0] is exc else "a task"
        return TaskFailed(f"{who} raised {type(exc).__name__}: {exc}")

    def _retire(self, worker: Any, task: Any, settle: Callable[[Any], None], outcome: Any) -> None:
        cost = self._cleanup(worker, task)
        del self._live[task.tid]
        worker.stats.tasks_executed += 1
        self.stats.tasks_executed += 1
        trace = self.probes.trace
        if trace is not None:
            trace(self.engine.now, "terminate", task, worker.index)
        prev = self._fulfil_worker
        self._fulfil_worker = worker
        try:
            settle(outcome)
        finally:
            self._fulfil_worker = prev
        self._release(worker, task, cost)

    def _suspend(self, worker: Any, task: Any) -> None:
        """Mark *task* blocked on *worker*; ``suspend`` closes its busy interval."""
        task.state = self.SUSPENDED
        self.stats.suspended_tasks += 1
        trace = self.probes.trace
        if trace is not None:
            trace(self.engine.now, "suspend", task, worker.index)

    # -- policy hooks ------------------------------------------------------

    def _charge_exec(self, worker: Any, task: Any, ns: int) -> None:
        """Book *ns* of task execution time to *task* on *worker*."""
        raise NotImplementedError

    def _block(self, worker: Any, task: Any) -> None:
        """*task* blocks on a future or mutex: charge the block,
        :meth:`_suspend` it and free *worker* for other work."""
        raise NotImplementedError

    def _wake(self, worker: Any, task: Any, send_value: Any) -> None:
        """Make the blocked *task* runnable, resuming with *send_value*.

        *worker* woke it: the one settling the awaited future (None
        outside retirement) or the one handing it a mutex."""
        raise NotImplementedError

    def _run_deferred(
        self, worker: Any, task: Any, producer: Any, futures: Sequence[Any] | None
    ) -> None:
        """*task* waits on a deferred *producer*: run it inline on *worker*.

        *futures* is the ``AwaitAll`` to re-issue afterwards, or None
        for an ``Await`` (resume with the producer's result)."""
        raise NotImplementedError

    def _cleanup(self, worker: Any, task: Any) -> int:
        """Retire *task*'s state and resources, charge its cleanup;
        returns the cleanup time."""
        raise NotImplementedError

    def _release(self, worker: Any, task: Any, cost: int) -> None:
        """After retiring *task*, free *worker* once *cost* elapsed."""
        raise NotImplementedError

    # -- population hooks (cohort execution) -------------------------------
    #
    # The cohort engine (:mod:`repro.exec.cohort`) never drives the
    # effect handlers; it charges whole populations through these four
    # hooks: the backend's cost model and resource policy at population
    # granularity.

    def population_work(self, work: Work) -> Work:
        """Apply backend-wide work scaling (e.g. locality traffic)."""
        raise NotImplementedError

    def population_task_costs(self, cohort: TaskCohort) -> tuple[float, float]:
        """Mean per-member ``(exec_ns, overhead_ns)`` beyond the compute,
        priced with the backend's own cost model (floats: rounding
        happens once per cohort, not per task)."""
        raise NotImplementedError

    def population_begin(self, cohort: TaskCohort) -> int:
        """Admit the cohort's live population; returns members admitted.

        A backend with a resource budget may abort mid-admission; the
        return value is then the number admitted before death."""
        raise NotImplementedError

    def population_end(self, cohort: TaskCohort) -> None:
        """Retire the population ``population_begin`` admitted."""
        raise NotImplementedError
