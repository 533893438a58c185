"""Kernel scheduler for the thread-per-task (``std::async``) model.

A single global FIFO run queue feeds the bound cores.  Every dispatch
pays a context switch plus run-queue lock contention that grows with
the number of cores hammering the queue; every ``std::async`` pays a
thread creation inside the parent; every not-ready ``get()`` pays a
futex block/wake pair.  Committed memory is tracked per live thread and
the process aborts when the budget is exhausted — the paper's observed
failure mode for Fib, Health, NQueens and UTS.

The mechanics shared with the HPX model (effect interpretation, the
probe bus, the waits' fast paths, retirement) come from
:class:`repro.exec.backend.SchedulerBackend`, so the same counters,
trace recorder and metrics work on both runtimes; this module holds the
kernel policy.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Sequence

from repro.exec.backend import SchedulerBackend
from repro.exec.errors import ResourceExhausted, describe_tasks
from repro.exec.probes import KernelProbe, WorkerProbe
from repro.model.effects import AwaitAll, Compute, Spawn, YieldNow
from repro.model.future import SimFuture, resume_payload
from repro.model.population import TaskCohort
from repro.model.work import Work
from repro.kernel.config import StdParams
from repro.kernel.thread import OSThread, ThreadState
from repro.runtime.policies import LaunchPolicy, _BY_NAME as _POLICY_BY_NAME
from repro.simcore.events import Engine
from repro.simcore.machine import Machine
from repro.simcore.topology import BindMode, Topology

__all__ = ["StdRuntime"]

# Hot-path aliases: `state is _BLOCKED` instead of enum-member loads.
_RUNNABLE = ThreadState.RUNNABLE
_RUNNING = ThreadState.RUNNING
_BLOCKED = ThreadState.BLOCKED
_TERMINATED = ThreadState.TERMINATED
_ASYNC = LaunchPolicy.ASYNC
_FORK = LaunchPolicy.FORK


class _KCore:
    __slots__ = ("index", "core_index", "socket", "current", "stats")

    def __init__(self, index: int, core_index: int, socket: int) -> None:
        self.index = index
        self.core_index = core_index
        self.socket = socket
        self.current: OSThread | None = None
        self.stats = WorkerProbe()


class StdRuntime(SchedulerBackend):
    """Facade mirroring :class:`repro.runtime.scheduler.HpxRuntime`.

    Costs are read from ``self.params`` on every use (the per-event
    handlers load it once per call, never at construction): a subclass
    may replace the params after construction (see ``repro.tools.base``).
    The per-event handlers book their charges, lock waits and trace
    events inline, as the HPX handlers do.
    """

    name = "std"
    noun = "thread"
    DEFERRED = ThreadState.DEFERRED
    SUSPENDED = ThreadState.BLOCKED
    stats: KernelProbe

    def __init__(
        self,
        engine: Engine,
        machine: Machine,
        *,
        num_workers: int,
        params: StdParams | None = None,
        bind_mode: BindMode = BindMode.COMPACT,
    ) -> None:
        self.topology = Topology(machine.platform)
        cores = self.topology.binding(num_workers, bind_mode)
        workers = [
            _KCore(i, core, machine.platform.socket_of(core)) for i, core in enumerate(cores)
        ]
        super().__init__(engine, machine, params or StdParams(), workers, KernelProbe())
        self.run_queue: deque[OSThread] = deque()
        self._root_future: SimFuture | None = None
        # Simulated global scheduler lock: the time until which it is
        # held.  A user (dispatch and wake hold it for runqueue_hold_ns,
        # an async spawn for create_hold_ns) queues behind the current
        # holder, so contention emerges on the shared time line; each
        # user books its wait plus its hold inline.
        self._lock_free_at = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def submit(self, fn: Callable[..., Any], *args: Any) -> SimFuture:
        """Start the main thread running *fn*."""
        main = self._make_thread(fn, args, home_socket=self.workers[0].socket, is_main=True)
        if self._root_future is None:  # later submits (e.g. query tasks) don't displace the root
            self._root_future = main.future
        main.staged_at = self.engine.now
        self.run_queue.append(main)
        self._dispatch()
        return main.future

    # -- counter sources --------------------------------------------------

    def queue_length(self) -> int:
        """Instantaneous length of the global run queue."""
        return len(self.run_queue)

    def worker_queue_length(self, index: int) -> int:
        """Cores have no local queues; all staging is global."""
        return 0

    # ------------------------------------------------------------------
    # SchedulerBackend: population hooks (cohort execution)
    # ------------------------------------------------------------------

    def population_work(self, work: Work) -> Work:
        """No backend-wide scaling: kernel threads pay no locality factor."""
        return work

    def population_task_costs(self, cohort: TaskCohort) -> tuple[float, float]:
        """Mean per-member (exec_ns, overhead_ns) beyond the compute.

        Same cost constants the effect handlers charge per event: one
        dispatch per resumption (context switch + instrumentation +
        run-queue hold), thread creation per spawn inside the parent, a
        ready-future read per non-suspending ``get()``, a futex
        block/wake pair per blocking ``get()``, and thread destruction
        at retirement.  Lock *queueing* on the run-queue/create locks —
        which the exact engine serializes event by event — enters only
        as the hold times; ``docs/cohort.md`` quantifies the error.
        """
        p = self.params
        dispatches = 1.0 + cohort.blocking_awaits
        overhead = (
            dispatches * (p.context_switch_ns + self.probes.instrument_ns + p.runqueue_hold_ns)
            + cohort.blocking_awaits * (p.block_ns + p.wake_ns + p.runqueue_hold_ns)
            + p.thread_destroy_ns
        )
        exec_ns = (
            cohort.spawns * (p.thread_create_ns + p.create_hold_ns)
            + cohort.ready_awaits * p.future_get_ready_ns
        )
        return exec_ns, overhead

    def population_begin(self, cohort: TaskCohort) -> int:
        """Commit thread stacks for the cohort's live population.

        Thread-per-task admits eagerly: every live member holds a
        committed stack.  When the cohort's modeled live population
        overruns the memory budget, exactly as many members are
        admitted as fit plus the one that dies — reproducing the exact
        engine's abort point and peak-live accounting.
        """
        live = cohort.peak_live
        stats = self.stats
        commit = self.params.thread_commit_bytes
        budget = self.params.ram_budget_bytes
        if stats.committed_bytes + live * commit > budget:
            admitted = (budget - stats.committed_bytes) // commit + 1
            admitted = max(1, min(live, admitted))
        else:
            admitted = live
        stats.live_tasks += admitted
        if stats.live_tasks > stats.peak_live_tasks:
            stats.peak_live_tasks = stats.live_tasks
        stats.committed_bytes += admitted * commit
        if stats.committed_bytes > budget:
            self._abort(
                f"thread stacks exhausted memory: {stats.live_tasks} live "
                f"threads x {commit} B > "
                f"{budget} B budget"
            )
        return admitted

    def population_end(self, cohort: TaskCohort) -> None:
        """Retire the cohort's live population and book the per-member
        kernel events (dispatches, blocks, wakes) at the boundary."""
        stats = self.stats
        live = cohort.peak_live
        stats.live_tasks -= live
        stats.committed_bytes -= live * self.params.thread_commit_bytes
        n = cohort.tasks
        stats.dispatches += round(n * (1.0 + cohort.blocking_awaits))
        stats.blocks += round(n * cohort.blocking_awaits)
        stats.wakes += round(n * cohort.blocking_awaits)

    # ------------------------------------------------------------------
    # thread management
    # ------------------------------------------------------------------

    def _make_thread(
        self,
        fn: Callable[..., Any],
        args: tuple,
        *,
        home_socket: int,
        parent: OSThread | None = None,
        deferred: bool = False,
        is_main: bool = False,
    ) -> OSThread:
        now = self.engine.now
        tid = self._next_tid
        self._next_tid = tid + 1
        thread = OSThread(
            tid,
            fn,
            args,
            home_socket=home_socket,
            created_at=now,
            parent_tid=None if parent is None else parent.tid,
            deferred=deferred,
            is_main=is_main,
        )
        stats = self.stats
        stats.tasks_created += 1
        self._live[tid] = thread
        trace = self.probes.trace
        if trace is not None:
            trace(now, "create", thread, None)
        if not deferred:
            # A real thread commits its stack and task_struct at creation.
            params = self.params
            thread.committed = True
            live = stats.live_tasks + 1
            stats.live_tasks = live
            if live > stats.peak_live_tasks:
                stats.peak_live_tasks = live
            stats.committed_bytes += params.thread_commit_bytes
            if stats.committed_bytes > params.ram_budget_bytes:
                self._abort(
                    f"thread stacks exhausted memory: {live} live "
                    f"threads x {params.thread_commit_bytes} B > "
                    f"{params.ram_budget_bytes} B budget"
                )
        return thread

    def _abort(self, reason: str) -> None:
        self.aborted = True
        # Over-budget diagnostics: name the threads holding the memory.
        live = [t for t in self._live.values() if t.committed]
        detail = describe_tasks(live, noun="thread", limit=5)
        self.abort_reason = "\n".join([reason, *detail]) if detail else reason
        if self._root_future is not None and not self._root_future.is_ready:
            self._root_future.set_exception(ResourceExhausted(self.abort_reason))
        self.engine.stop(reason)

    # ------------------------------------------------------------------
    # dispatch loop
    # ------------------------------------------------------------------

    def _dispatch(self) -> None:
        """Assign runnable threads to free cores (lowest index first)."""
        if self.aborted:
            return
        run_queue = self.run_queue
        if not run_queue:
            return
        params = self.params
        probes = self.probes
        engine = self.engine
        now = engine.now
        stats = self.stats
        for core in self.workers:
            if not run_queue:
                return
            if core.current is not None:
                continue
            thread = run_queue.popleft()
            core.current = thread
            thread.state = _RUNNING
            thread.slices += 1
            stats.dispatches += 1
            stats.phases += 1
            if thread.staged_at is not None:
                stats.pending_wait_ns += now - thread.staged_at
                stats.pending_waits += 1
                thread.staged_at = None
            # Queue on the scheduler lock, then hold it.
            start = self._lock_free_at
            if now > start:
                start = now
            self._lock_free_at = start + params.runqueue_hold_ns
            cost = params.context_switch_ns + probes.instrument_ns + (self._lock_free_at - now)
            thread.overhead_ns += cost
            stats.overhead_ns += cost
            cstats = core.stats
            cstats.overhead_ns += cost
            cstats.busy_ns += cost
            if probes.trace is not None:
                probes.trace(now, "activate", thread, core.index)
            engine.call_later(cost, self._run, core, thread)

    def _free_core(self, core: _KCore) -> None:
        core.current = None
        self._dispatch()

    def _run(self, core: _KCore, thread: OSThread) -> None:
        if self.aborted:
            return
        if thread.preempted_work is not None:
            work, thread.preempted_work = thread.preempted_work, None
            self._compute_work(core, thread, work)
            return
        self._step(core, thread, thread.pending_send)

    # -- accounting: charge *ns* to a thread's exec or overhead time -------

    def _charge_exec(self, core: _KCore, thread: OSThread, ns: int) -> None:
        thread.exec_ns += ns
        self.stats.exec_ns += ns
        core.stats.exec_ns += ns
        core.stats.busy_ns += ns

    def _charge_overhead(self, core: _KCore, thread: OSThread, ns: int) -> None:
        thread.overhead_ns += ns
        self.stats.overhead_ns += ns
        core.stats.overhead_ns += ns
        core.stats.busy_ns += ns

    # ------------------------------------------------------------------
    # SchedulerBackend: effect handlers and policy hooks
    # ------------------------------------------------------------------

    # -- compute with preemption ------------------------------------------

    def do_compute(self, core: _KCore, thread: OSThread, effect: Compute) -> None:
        self._compute_work(core, thread, effect.work)

    def _compute_work(self, core: _KCore, thread: OSThread, work: Work) -> None:
        params = self.params
        quantum = params.time_slice_ns
        if work.cpu_ns > quantum and self.run_queue:
            part, rest = work.split_at(quantum)
        else:
            part, rest = work, None
        cross = (
            params.cross_socket_data_fraction
            if thread.home_socket != core.socket and part.membytes > 0
            else 0.0
        )
        ticket = self.machine.segment_begin(core.core_index, part, cross)
        duration = ticket.duration_ns
        thread.exec_ns += duration
        self.stats.exec_ns += duration
        cstats = core.stats
        cstats.exec_ns += duration
        cstats.busy_ns += duration
        self.engine.call_later(duration, self._finish_compute, core, thread, ticket, part, rest)

    def _finish_compute(
        self, core: _KCore, thread: OSThread, ticket: Any, part: Work, rest: Work | None
    ) -> None:
        self.machine.segment_end(ticket, part)
        if rest is not None:
            self.stats.preemptions += 1
            thread.preempted_work = rest
            thread.state = ThreadState.RUNNABLE
            thread.staged_at = self.engine.now
            self.run_queue.append(thread)
            self._free_core(core)
        else:
            self._step(core, thread, None)

    # -- spawn ---------------------------------------------------------------

    def do_spawn(self, core: _KCore, thread: OSThread, effect: Spawn) -> None:
        policy = _POLICY_BY_NAME.get(effect.policy)
        if policy is None:
            policy = LaunchPolicy.parse(effect.policy)
        if policy is _ASYNC or policy is _FORK:
            # fork does not exist in std; Inncabs maps it to async.
            params = self.params
            engine = self.engine
            now = engine.now
            # Queue on the scheduler lock, then hold it.
            start = self._lock_free_at
            if now > start:
                start = now
            self._lock_free_at = start + params.create_hold_ns
            cost = params.thread_create_ns + (self._lock_free_at - now)
            child = self._make_thread(
                effect.fn, effect.args, home_socket=core.socket, parent=thread
            )
            if self.aborted:
                return
            thread.exec_ns += cost
            self.stats.exec_ns += cost
            cstats = core.stats
            cstats.exec_ns += cost
            cstats.busy_ns += cost
            child.staged_at = now
            self.run_queue.append(child)
            engine.call_later(cost, self._created, core, thread, child)
            return
        if policy is LaunchPolicy.DEFERRED:
            child = self._make_thread(
                effect.fn, effect.args, home_socket=core.socket, parent=thread, deferred=True
            )
            cost = self.params.future_get_ready_ns
            self._charge_exec(core, thread, cost)
            self.engine.call_later(cost, self._step, core, thread, child.future)
            return
        # SYNC: run inline on this thread, borrowing the core; the parent
        # resumes with the child's (then ready) future.
        child = self._make_thread(
            effect.fn, effect.args, home_socket=core.socket, parent=thread, deferred=True
        )

        def resume(fut: SimFuture) -> None:
            self._reenter(core, thread)
            self._step(core, thread, fut)

        self._run_inline(core, thread, child, resume)

    def _created(self, core: _KCore, thread: OSThread, child: OSThread) -> None:
        """An async spawn finished creating its thread: dispatch it and
        resume the parent with the child's future."""
        self._dispatch()
        self._step(core, thread, child.future)

    def _run_inline(
        self, core: _KCore, thread: OSThread, child: OSThread, resume: Callable[[SimFuture], None]
    ) -> None:
        """Execute a deferred or sync *child* on *thread*'s core right now;
        ``resume(future)`` continues *thread* once the child is done."""
        self._suspend(core, thread)
        child.future.on_ready(resume)
        child.state = ThreadState.RUNNING
        core.current = child
        self.probes.emit(self.engine.now, "activate", child, core.index)
        self._step(core, child, None)

    def _reenter(self, core: _KCore, thread: OSThread) -> None:
        """*thread* takes *core* back from its finished inline child."""
        if thread.state is ThreadState.BLOCKED:
            self.stats.suspended_tasks -= 1
        thread.state = ThreadState.RUNNING
        core.current = thread
        self.probes.emit(self.engine.now, "resume", thread, core.index)

    def _run_deferred(
        self, core: _KCore, thread: OSThread, producer: OSThread, futures: Sequence[Any] | None
    ) -> None:
        def resume(fut: SimFuture) -> None:
            if futures is None:
                self._reenter(core, thread)
                self._step(core, thread, resume_payload(fut))
            else:  # re-issue the wait on the core that ran the child
                fulfil = self._fulfil_worker or self.workers[0]
                self._reenter(fulfil, thread)
                self.do_await_all(fulfil, thread, AwaitAll(futures=futures))

        self._run_inline(core, thread, producer, resume)

    # -- blocking and waking ---------------------------------------------------

    def _block(self, core: _KCore, thread: OSThread) -> None:
        """Futex wait: the thread leaves its core until woken."""
        cost = self.params.block_ns
        thread.overhead_ns += cost
        stats = self.stats
        stats.overhead_ns += cost
        cstats = core.stats
        cstats.overhead_ns += cost
        cstats.busy_ns += cost
        stats.blocks += 1
        self._suspend(core, thread)
        self.engine.call_later(cost, self._free_core, core)

    def _wake(self, core: _KCore | None, thread: OSThread, send_value: Any) -> None:
        """Future set / mutex granted: move *thread* to the run queue."""
        if self.aborted:
            return
        params = self.params
        engine = self.engine
        now = engine.now
        stats = self.stats
        stats.wakes += 1
        # Queue on the scheduler lock, then hold it.
        start = self._lock_free_at
        if now > start:
            start = now
        self._lock_free_at = start + params.runqueue_hold_ns
        cost = params.wake_ns + (self._lock_free_at - now)
        stats.overhead_ns += cost
        thread.overhead_ns += cost
        thread.pending_send = send_value
        if thread.state is _BLOCKED:
            stats.suspended_tasks -= 1
        thread.state = _RUNNABLE
        thread.staged_at = now
        self.run_queue.append(thread)
        trace = self.probes.trace
        if trace is not None:
            trace(now, "resume", thread, None)
        engine.call_later(cost, self._dispatch)

    def do_yield(self, core: _KCore, thread: OSThread, effect: YieldNow) -> None:
        cost = self.params.context_switch_ns
        self._charge_overhead(core, thread, cost)
        thread.state = ThreadState.RUNNABLE
        thread.pending_send = None
        thread.staged_at = self.engine.now
        self.run_queue.append(thread)
        self.probes.emit(self.engine.now, "suspend", thread, core.index)
        self.engine.call_later(cost, self._free_core, core)

    # -- retirement -----------------------------------------------------------------

    def _cleanup(self, core: _KCore, thread: OSThread) -> int:
        thread.state = _TERMINATED
        cost = 0
        stats = self.stats
        # Deferred/sync children never committed memory; real threads did.
        if thread.committed:
            params = self.params
            stats.live_tasks -= 1
            stats.committed_bytes -= params.thread_commit_bytes
            cost = params.thread_destroy_ns
        thread.overhead_ns += cost
        stats.overhead_ns += cost
        cstats = core.stats
        cstats.overhead_ns += cost
        cstats.busy_ns += cost
        return cost

    def _release(self, core: _KCore, thread: OSThread, cost: int) -> None:
        # An inline-resume callback may have reoccupied the core (a
        # deferred child waking its waiter); only free it if this thread
        # still holds it.
        if core.current is thread:
            self.engine.call_later(cost, self._free_core, core)
