"""The HPX-style thread manager: a work-stealing user-level thread
scheduler on top of :class:`repro.simcore.events.Engine`.

One worker per bound core, each with a work-stealing deque: the owner
pushes and pops at its left end (LIFO, depth-first), thieves take from
the right end (the oldest staged task).  Idle workers are woken by
notifications, never by polling; victims are scanned same-socket-first
— cross-socket steals cost more, producing the 10-core knee of Figures
11/12.  Every scheduling action is accounted to either *task execution
time* or *task scheduling overhead*, the two quantities behind the
paper's ``/threads/time/*`` counters.  The mechanics shared with the
kernel model (effect interpretation, the probe bus, the waits' fast
paths, retirement) come from
:class:`repro.exec.backend.SchedulerBackend`; this module holds the HPX
policy.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Sequence

from repro.exec.backend import SchedulerBackend
from repro.exec.probes import SchedulerProbe, WorkerProbe
from repro.model.effects import AwaitAll, Compute, Spawn, YieldNow
from repro.model.future import SimFuture, resume_payload
from repro.model.population import TaskCohort
from repro.model.work import Work
from repro.runtime.config import HpxParams
from repro.runtime.policies import LaunchPolicy, _BY_NAME as _POLICY_BY_NAME
from repro.runtime.task import Task, TaskState
from repro.simcore.events import Engine
from repro.simcore.machine import Machine
from repro.simcore.topology import BindMode, Topology

__all__ = ["HpxRuntime"]

# Hot-path aliases: `policy is _ASYNC` instead of enum-member loads.
_ASYNC = LaunchPolicy.ASYNC
_FORK = LaunchPolicy.FORK
_SYNC = LaunchPolicy.SYNC
_PENDING = TaskState.PENDING
_ACTIVE = TaskState.ACTIVE
_SUSPENDED = TaskState.SUSPENDED
_TERMINATED = TaskState.TERMINATED


class _Worker:
    """One scheduler worker bound to one core."""

    __slots__ = (
        "index",
        "core_index",
        "socket",
        "queue",
        "state",
        "current",
        "stats",
        "victims",
        "enabled",
    )

    def __init__(self, index: int, core_index: int, socket: int) -> None:
        self.index = index
        self.core_index = core_index
        self.socket = socket
        # Staged tasks: the owner pushes and pops at the left end
        # (newest first: depth-first execution keeps the live-task count
        # small), thieves pop at the right end (oldest first).
        self.queue: deque[Task] = deque()
        self.state = "idle"  # idle | waking | busy
        self.current: Task | None = None
        self.stats = WorkerProbe()
        self.victims: list[int] = []
        # APEX-style throttling: disabled workers stop picking up work
        # (their staged tasks remain stealable).
        self.enabled = True


class HpxRuntime(SchedulerBackend):
    """Facade: spawn tasks, drive the engine, expose counter sources.

    User-level tasks never exhaust a kernel resource budget, so an HPX
    run never sets ``aborted``.
    """

    name = "hpx"
    DEFERRED = TaskState.DEFERRED
    SUSPENDED = TaskState.SUSPENDED

    def __init__(
        self,
        engine: Engine,
        machine: Machine,
        *,
        num_workers: int,
        params: HpxParams | None = None,
        bind_mode: BindMode = BindMode.COMPACT,
        locality_traffic_factor: float = 1.0,
        smt: int = 1,
    ) -> None:
        p = params or HpxParams()
        if p.local_queue_discipline not in ("lifo", "fifo"):
            raise ValueError(f"unknown local_queue_discipline {p.local_queue_discipline!r}")
        self.topology = Topology(machine.platform)
        cores = self.topology.binding_smt(num_workers, smt, bind_mode)
        workers = [
            _Worker(i, core, machine.platform.socket_of(core)) for i, core in enumerate(cores)
        ]
        super().__init__(engine, machine, p, workers, SchedulerProbe())
        # Params are frozen; cache the per-event costs as attributes so
        # the hot paths do one attribute load instead of two.
        self._notify_ns = p.notify_ns
        self._dequeue_ns = p.dequeue_ns
        self._context_switch_ns = p.context_switch_ns
        self._task_create_ns = p.task_create_ns
        self._enqueue_ns = p.enqueue_ns
        self._suspend_ns = p.suspend_ns
        self._cleanup_ns = p.cleanup_ns
        self._lifo = p.local_queue_discipline == "lifo"
        self._stack0_ns = p.stack_alloc_ns(0)  # default-stack allocation cost
        # Workers in the "idle" state: while none is, runnable work
        # wakes nobody and the spawn and wake paths skip the kick.
        self._idle = len(self.workers)
        # Hyper-threading: number of workers currently computing per
        # physical core (two sharing a core each run slower).  Kept only
        # when two workers share one; otherwise every segment runs at
        # full speed.
        self._core_compute_count: dict[int, int] | None = (
            {} if len(set(cores)) < len(cores) else None
        )
        self._build_victim_orders()
        # Coherence-channel state (see HpxParams.qpi_*_hold_ns).
        self._spans_sockets = len({w.socket for w in self.workers}) > 1
        self._qpi_free_at = 0
        # Multiplier on task memory traffic modelling locality loss under
        # depth-first execution (per-benchmark; see HpxParams docstring).
        self.locality_traffic_factor = locality_traffic_factor

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def set_active_workers(self, count: int) -> None:
        """Throttle the pool to its first *count* workers (APEX-style
        adaptation).  Remaining workers finish their current task, then
        idle; their queued tasks stay stealable.  Raising the count
        re-enables and wakes workers."""
        count = max(1, min(count, len(self.workers)))
        for w in self.workers:
            enable = w.index < count
            was_enabled = w.enabled
            w.enabled = enable
            if enable and not was_enabled and w.state == "idle":
                w.state = "waking"
                self._idle -= 1
                self.engine.call_later(self._notify_ns, self._worker_scan, w)

    @property
    def active_workers(self) -> int:
        return sum(1 for w in self.workers if w.enabled)

    def submit(self, fn: Callable[..., Any], *args: Any) -> SimFuture:
        """Stage a root task on worker 0; returns its future."""
        task = self._make_task(fn, args, _ASYNC, None, self.workers[0].socket)
        task.staged_at = self.engine.now
        self.workers[0].queue.appendleft(task)
        self._kick_for_work(self.workers[0])
        return task.future

    # -- counter sources --------------------------------------------------

    def queue_length(self) -> int:
        """Instantaneous number of staged (runnable, unpicked) tasks."""
        return sum(len(w.queue) for w in self.workers)

    def worker_queue_length(self, index: int) -> int:
        """Staged tasks in one worker's own queue."""
        return len(self.workers[index].queue)

    # ------------------------------------------------------------------
    # SchedulerBackend: population hooks (cohort execution)
    # ------------------------------------------------------------------

    def population_work(self, work: Work) -> Work:
        """Backend-wide work scaling: the depth-first locality factor."""
        if self.locality_traffic_factor != 1.0:
            return work.scaled(self.locality_traffic_factor)
        return work

    def population_task_costs(self, cohort: TaskCohort) -> tuple[float, float]:
        """Mean per-member (exec_ns, overhead_ns) beyond the compute.

        Prices the member's scheduler interactions with the same cost
        constants the effect handlers charge per event: one activation
        per resumption (dequeue + context switch + instrumentation),
        the first-activation stack allocation, creation + enqueue per
        spawn, a ready-future read per non-suspending await, a suspend
        per blocking await, and cleanup at retirement.  Contention
        terms the exact engine serializes per event (steals, the QPI
        channel, cross-socket activation) average out of the mean-value
        model; ``docs/cohort.md`` quantifies the resulting error.
        """
        activations = 1.0 + cohort.blocking_awaits
        overhead = (
            activations * (self._dequeue_ns + self._context_switch_ns + self.instrument_ns)
            + self._stack0_ns
            + cohort.blocking_awaits * self._suspend_ns
            + self._cleanup_ns
        )
        exec_ns = (
            cohort.spawns * (self._task_create_ns + self._enqueue_ns)
            + cohort.ready_awaits * self.params.future_get_ready_ns
        )
        return exec_ns, overhead

    def _population_live(self, cohort: TaskCohort) -> int:
        """Peak live members while the cohort runs.

        User-level tasks are admitted lazily under depth-first (LIFO)
        execution: each worker keeps roughly one spawned-but-unpicked
        frontier task per tree level it has descended, so the live
        population grows with ``workers x depth``, not with the cohort
        size (calibrated against exact fib runs; see docs/cohort.md).
        """
        if cohort.depth <= 1:
            return min(cohort.tasks, cohort.peak_live)
        modeled = self.num_workers * max(1, cohort.depth - 2)
        return min(cohort.tasks, modeled)

    def population_begin(self, cohort: TaskCohort) -> int:
        live = self._population_live(cohort)
        stats = self.stats
        stats.live_tasks += live
        if stats.live_tasks > stats.peak_live_tasks:
            stats.peak_live_tasks = stats.live_tasks
        return live

    def population_end(self, cohort: TaskCohort) -> None:
        self.stats.live_tasks -= self._population_live(cohort)

    # ------------------------------------------------------------------
    # task creation and placement
    # ------------------------------------------------------------------

    def _make_task(
        self,
        fn: Callable[..., Any],
        args: tuple,
        policy: LaunchPolicy,
        parent: Task | None,
        home_socket: int,
        stack_bytes: int = 0,
    ) -> Task:
        now = self.engine.now
        tid = self._next_tid
        self._next_tid = tid + 1
        task = Task(
            tid,
            fn,
            args,
            policy,
            None if parent is None else parent.tid,
            home_socket,
            stack_bytes,
            now,
        )
        stats = self.stats
        stats.tasks_created += 1
        live = stats.live_tasks + 1
        stats.live_tasks = live
        if live > stats.peak_live_tasks:
            stats.peak_live_tasks = live
        self._live[tid] = task
        trace = self.probes.trace
        if trace is not None:
            trace(now, "create", task, None)
        return task

    def _kick_for_work(self, preferred: _Worker) -> None:
        """Wake an idle worker because runnable work exists."""
        target: _Worker | None = None
        if preferred.state == "idle" and preferred.enabled:
            target = preferred
        else:
            # Nearest enabled idle worker (same socket first) will steal it.
            for vi in preferred.victims:
                candidate = self.workers[vi]
                if candidate.state == "idle" and candidate.enabled:
                    target = candidate
                    break
        if target is None:
            return
        target.state = "waking"
        self._idle -= 1
        self.engine.call_later(self._notify_ns, self._worker_scan, target)

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------

    # -- accounting: a charge books *ns* to the task's and its worker's
    # exec or overhead time (inline on the per-event paths) -------------

    def _charge_exec(self, w: _Worker, task: Task, ns: int) -> None:
        task.exec_ns += ns
        w.stats.exec_ns += ns
        w.stats.busy_ns += ns

    def _qpi_delay(self, w: _Worker) -> int:
        """Serialize one scheduler op on the cross-socket coherence
        channel; returns the delay to charge.  Free while all workers
        share one socket."""
        if not self._spans_sockets:
            return 0
        hold = (
            self.params.qpi_local_hold_ns
            if w.socket == self.workers[0].socket
            else self.params.qpi_remote_hold_ns
        )
        start = max(self.engine.now, self._qpi_free_at)
        self._qpi_free_at = start + hold
        return self._qpi_free_at - self.engine.now

    def _build_victim_orders(self) -> None:
        order = self.params.steal_order
        if order not in ("near-first", "far-first", "random"):
            raise ValueError(f"unknown steal_order {self.params.steal_order!r}")
        for w in self.workers:
            same = [
                o.index
                for o in sorted(self.workers, key=lambda o: (abs(o.index - w.index), o.index))
                if o.index != w.index and o.socket == w.socket
            ]
            other = [o.index for o in self.workers if o.socket != w.socket]
            if order == "near-first":
                w.victims = same + other
            elif order == "far-first":
                w.victims = other + same
            else:  # random but deterministic per worker
                from repro.simcore.rng import derive_rng

                victims = same + other
                derive_rng(0xABAD1DEA, "steal-order", w.index).shuffle(victims)
                w.victims = victims

    def _worker_scan(self, w: _Worker) -> None:
        """Find work: own queue's newest task, then steal; go idle if none."""
        if w.state == "busy":
            return  # a racing wake-up; the worker is already running
        if not w.enabled:
            w.state = "idle"
            self._idle += 1
            # Throttled away: any work staged here must remain reachable.
            if w.queue:
                self._kick_for_work(w)
            return
        task = w.queue.popleft() if w.queue else None
        overhead = self._dequeue_ns
        if task is None:
            stats = w.stats
            for vi in w.victims:
                victim = self.workers[vi]
                stats.steals_attempted += 1
                if victim.queue:
                    task = victim.queue.pop()
                    stats.steals_ok += 1
                    if victim.socket != w.socket:
                        stats.steals_cross_socket += 1
                        overhead = self.params.steal_cross_socket_ns
                    else:
                        overhead = self.params.steal_same_socket_ns
                    break
        if task is None:
            w.state = "idle"
            self._idle += 1
            return
        w.state = "busy"
        self._activate(w, task, overhead)

    def _activate(self, w: _Worker, task: Task, overhead_ns: int) -> None:
        """Context-switch into *task* and start driving its body."""
        probes = self.probes
        overhead = overhead_ns + self._context_switch_ns + probes.instrument_ns
        if task.phases == 0:
            sb = task.stack_bytes
            overhead += self._stack0_ns if sb == 0 else self.params.stack_alloc_ns(sb)
        if task.home_socket != w.socket:
            overhead += self.params.cross_socket_activation_ns
        if self._spans_sockets:
            overhead += self._qpi_delay(w)
        now = self.engine.now
        stats = self.stats
        if task.staged_at is not None:
            stats.pending_wait_ns += now - task.staged_at
            stats.pending_waits += 1
            task.staged_at = None
        task.state = _ACTIVE
        task.phases += 1
        stats.phases += 1
        task.overhead_ns += overhead
        wstats = w.stats
        wstats.overhead_ns += overhead
        wstats.busy_ns += overhead
        w.current = task
        if probes.trace is not None:
            probes.trace(now, "activate", task, w.index)
        send = task.pending_send
        task.pending_send = None
        self.engine.call_later(overhead, self._step, w, task, send)

    def _after_task(self, w: _Worker) -> None:
        """The worker just finished/suspended a task; run its newest, or scan."""
        w.current = None
        if w.queue and w.enabled:
            w.state = "busy"
            self._activate(w, w.queue.popleft(), self._dequeue_ns)
            return
        w.state = "waking"
        self._worker_scan(w)

    # ------------------------------------------------------------------
    # SchedulerBackend: effect handlers and policy hooks
    # ------------------------------------------------------------------

    # -- compute -----------------------------------------------------------

    def do_compute(self, w: _Worker, task: Task, effect: Compute) -> None:
        work = effect.work
        if self.locality_traffic_factor != 1.0:
            work = work.scaled(self.locality_traffic_factor)
        cross = (
            self.params.cross_socket_data_fraction
            if task.home_socket != w.socket and work.membytes > 0
            else 0.0
        )
        core = w.core_index
        computing = self._core_compute_count
        if computing is None:
            speed = 1.0
        else:
            sharing = computing.get(core, 0)
            speed = self.params.smt_slowdown if sharing else 1.0
            computing[core] = sharing + 1
        ticket = self.machine.segment_begin(core, work, cross, speed)
        duration = ticket.duration_ns
        task.exec_ns += duration
        stats = w.stats
        stats.exec_ns += duration
        stats.busy_ns += duration
        self.engine.call_later(duration, self._finish_compute, w, task, ticket, work)

    def _finish_compute(self, w: _Worker, task: Task, ticket: Any, work: Work) -> None:
        if self._core_compute_count is not None:
            self._core_compute_count[w.core_index] -= 1
        self.machine.segment_end(ticket, work)
        self._step(w, task, None)

    # -- spawn -------------------------------------------------------------

    def do_spawn(self, w: _Worker, task: Task, effect: Spawn) -> None:
        policy = _POLICY_BY_NAME.get(effect.policy)
        if policy is None:
            policy = LaunchPolicy.parse(effect.policy)
        cost = self._task_create_ns
        if self._spans_sockets:
            cost += self._qpi_delay(w)
        child = self._make_task(effect.fn, effect.args, policy, task, w.socket, effect.stack_bytes)
        if policy is _ASYNC or policy is _FORK:
            cost += self._enqueue_ns
            child.staged_at = self.engine.now
            if policy is _FORK or self._lifo:
                # Child at the hot end: the owner executes depth-first
                # (fork additionally implies it runs next on this core).
                w.queue.appendleft(child)
            else:
                # FIFO ablation: breadth-first execution order.
                w.queue.append(child)
            if self._idle:
                self._kick_for_work(w)
        elif policy is _SYNC:
            # Execute inline: chain the child now, resume the parent with
            # its (then ready) future, matching the other launch policies.
            self._charge_exec(w, task, cost)
            self._run_inline(w, task, child, lambda fut: self._wake(self._fulfil_worker, task, fut))
            return
        # DEFERRED: not staged; runs at first wait on its future.
        task.exec_ns += cost
        w.stats.exec_ns += cost
        w.stats.busy_ns += cost
        self.engine.call_later(cost, self._step, w, task, child.future)

    def _run_inline(
        self, w: _Worker, parent: Task, child: Task, resume: Callable[[SimFuture], None]
    ) -> None:
        """Run *child* now on *w*; ``resume(future)`` continues *parent*."""
        child.state = _PENDING
        self._suspend(w, parent)
        child.future.on_ready(resume)
        self._activate(w, child, 0)

    def _run_deferred(
        self, w: _Worker, task: Task, producer: Task, futures: Sequence[Any] | None
    ) -> None:
        if futures is None:
            self._run_inline(
                w, task, producer, lambda fut: self._joined(task, (fut,), resume_payload(fut))
            )
        else:
            self._run_inline(w, task, producer, lambda _fut: self._reawait_all(task, futures))

    def _reawait_all(self, task: Task, futures: Sequence[Any]) -> None:
        """Re-issue an AwaitAll after an inline deferred child completed."""
        task.pending_send = None
        worker = self._fulfil_worker or self.workers[0]
        if task.state is _SUSPENDED:
            self.stats.suspended_tasks -= 1
        task.state = _ACTIVE
        # Dispatch directly: the task is still positioned at its AwaitAll.
        self.do_await_all(worker, task, AwaitAll(futures=futures))

    # -- blocking and waking ---------------------------------------------------

    def _block(self, w: _Worker, task: Task) -> None:
        cost = self._suspend_ns
        task.overhead_ns += cost
        w.stats.overhead_ns += cost
        w.stats.busy_ns += cost
        self._suspend(w, task)
        self.engine.call_later(cost, self._after_task, w)

    def _wake(self, w: _Worker | None, task: Task, send_value: Any) -> None:
        """Stage *task* at the head of the waking worker's queue (worker 0
        when a future is set outside any worker)."""
        if w is None:
            w = self.workers[0]
        task.pending_send = send_value
        if task.state is _SUSPENDED:
            self.stats.suspended_tasks -= 1
        task.state = _PENDING
        now = self.engine.now
        task.staged_at = now
        w.queue.appendleft(task)
        trace = self.probes.trace
        if trace is not None:
            trace(now, "resume", task, w.index)
        if self._idle:
            self._kick_for_work(w)

    def do_yield(self, w: _Worker, task: Task, effect: YieldNow) -> None:
        cost = self._context_switch_ns
        task.overhead_ns += cost
        w.stats.overhead_ns += cost
        w.stats.busy_ns += cost
        task.state = _PENDING
        task.pending_send = None
        task.staged_at = self.engine.now
        w.queue.append(task)
        self.probes.emit(self.engine.now, "suspend", task, w.index)
        self.engine.call_later(cost, self._after_task, w)

    # -- retirement --------------------------------------------------------------

    def _cleanup(self, w: _Worker, task: Task) -> int:
        cost = self._cleanup_ns
        task.overhead_ns += cost
        w.stats.overhead_ns += cost
        w.stats.busy_ns += cost
        task.state = _TERMINATED
        # Totals are booked once per task, at retirement.
        stats = self.stats
        stats.exec_ns += task.exec_ns
        stats.overhead_ns += task.overhead_ns
        stats.live_tasks -= 1
        return cost

    def _release(self, w: _Worker, task: Task, cost: int) -> None:
        self.engine.call_later(cost, self._after_task, w)
