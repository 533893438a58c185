"""Thread-manager counters (``/threads/...``).

These are the counters the paper's metrics are built on (Section V-C):

- **Task Duration** — ``/threads/time/average``
- **Task Overhead** — ``/threads/time/average-overhead``
- **Task Time** — ``/threads/time/cumulative``
- **Scheduling Overhead** — ``/threads/time/cumulative-overhead``

plus counts, queue lengths, steal statistics and the idle rate.  Each
type exposes a ``total`` instance and one per ``worker-thread#N``.

Instrumentation costs: the timing counters require timestamping every
task activation, so activating them charges ~50 ns per task each —
measurable (≈10 %) against very fine ~1 µs tasks on 1–2 cores, noise
otherwise, matching Section V-C.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from repro.counters.base import (
    AverageRatioCounter,
    CounterEnvironment,
    CounterInfo,
    MonotonicCounter,
    PerformanceCounter,
    RawCounter,
)
from repro.counters.names import CounterName
from repro.counters.registry import CounterTypeEntry
from repro.counters.types import CounterType

# Per-activation timestamping cost while a timing counter is active.
TIMING_INSTRUMENT_NS = 25
COUNT_INSTRUMENT_NS = 5
IDLE_INSTRUMENT_NS = 15


class IdleRateCounter(PerformanceCounter):
    """1 - Δbusy/Δ(wall x workers), reported in units of 0.01 %
    (HPX convention: a reading of 9500 means 95 % idle)."""

    def __init__(
        self,
        name: CounterName,
        info: CounterInfo,
        env: CounterEnvironment,
        busy_source: Callable[[], int],
        num_workers: int,
    ) -> None:
        super().__init__(name, info, env)
        self._busy = busy_source
        self._n = num_workers
        self._busy_base = 0
        self._wall_base = 0

    def read(self) -> float:
        wall = (self.env.engine.now - self._wall_base) * self._n
        if wall <= 0:
            return 0.0
        busy = self._busy() - self._busy_base
        return max(0.0, 1.0 - busy / wall) * 10000.0

    def reset(self) -> None:
        self._busy_base = self._busy()
        self._wall_base = self.env.engine.now


def _probe_view(name: CounterName, env: CounterEnvironment) -> Any:
    """The typed probe object the instance *name* addresses.

    ``total`` is the backend's :class:`~repro.exec.probes.SchedulerProbe`
    totals; ``worker-thread#N`` is that worker's
    :class:`~repro.exec.probes.WorkerProbe`.  Counters bind to these
    views directly — never to scheduler internals — so every counter
    works against any :class:`~repro.exec.backend.SchedulerBackend`.
    """
    probes = env.require("runtime").probes
    if name.instance_name == "total":
        return probes.total
    if name.instance_name == "worker-thread":
        index = name.instance_index
        if index is None or not 0 <= index < len(probes.workers):
            raise ValueError(f"bad worker-thread index in {name}")
        return probes.workers[index]
    raise ValueError(f"unknown instance {name.instance_name!r} in {name}")


def _mono(attr_total: str, attr_worker: str | None = None):
    """Factory factory for monotonic counters over probe attributes."""
    attr_worker = attr_worker or attr_total

    def factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        view = _probe_view(name, env)
        attr = attr_total if name.instance_name == "total" else attr_worker
        return MonotonicCounter(name, info, env, partial(getattr, view, attr))

    return factory


def _avg(num_total: str, den_total: str, num_worker: str, den_worker: str):
    def factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        view = _probe_view(name, env)
        if name.instance_name == "total":
            num_attr, den_attr = num_total, den_total
        else:
            num_attr, den_attr = num_worker, den_worker
        return AverageRatioCounter(
            name,
            info,
            env,
            partial(getattr, view, num_attr),
            partial(getattr, view, den_attr),
        )

    return factory


def threads_counter_types(env: CounterEnvironment) -> list[CounterTypeEntry]:
    """Every ``/threads/...`` counter type (provider ``builtin.threads``)."""
    entries: list[CounterTypeEntry] = []

    def entry(
        counter: str,
        ctype: CounterType,
        help_text: str,
        factory,
        *,
        unit: str = "",
        instrument: int = 0,
    ) -> None:
        entries.append(
            CounterTypeEntry(
                info=CounterInfo(
                    type_name=f"/threads/{counter}",
                    counter_type=ctype,
                    help_text=help_text,
                    unit=unit,
                    instrument_ns_per_task=instrument,
                ),
                factory=factory,
            )
        )

    entry(
        "count/cumulative",
        CounterType.MONOTONICALLY_INCREASING,
        "Number of HPX threads (tasks) executed to completion",
        _mono("tasks_executed"),
        instrument=COUNT_INSTRUMENT_NS,
    )
    entry(
        "count/cumulative-phases",
        CounterType.MONOTONICALLY_INCREASING,
        "Number of HPX thread phases (activations) executed",
        _mono("phases", "tasks_executed"),
        instrument=COUNT_INSTRUMENT_NS,
    )
    entry(
        "count/created",
        CounterType.MONOTONICALLY_INCREASING,
        "Number of HPX threads created",
        _mono("tasks_created", "tasks_executed"),
        instrument=COUNT_INSTRUMENT_NS,
    )
    entry(
        "time/average",
        CounterType.AVERAGE_TIMER,
        "Average time spent executing one HPX thread (task duration / grain size)",
        _avg("exec_ns", "tasks_executed", "exec_ns", "tasks_executed"),
        unit="ns",
        instrument=TIMING_INSTRUMENT_NS,
    )
    entry(
        "time/average-overhead",
        CounterType.AVERAGE_TIMER,
        "Average scheduling cost of executing one HPX thread (task overhead)",
        _avg("overhead_ns", "tasks_executed", "overhead_ns", "tasks_executed"),
        unit="ns",
        instrument=TIMING_INSTRUMENT_NS,
    )
    entry(
        "time/cumulative",
        CounterType.MONOTONICALLY_INCREASING,
        "Cumulative execution time of all HPX threads (task time)",
        _mono("exec_ns"),
        unit="ns",
        instrument=TIMING_INSTRUMENT_NS,
    )
    entry(
        "time/cumulative-overhead",
        CounterType.MONOTONICALLY_INCREASING,
        "Cumulative scheduling overhead of all HPX threads",
        _mono("overhead_ns"),
        unit="ns",
        instrument=TIMING_INSTRUMENT_NS,
    )

    def wait_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        # Queue wait accrues while a task belongs to no worker (it may be
        # stolen, or sit in the kernel's global queue), so only the
        # scheduler totals can attribute it.
        if name.instance_name != "total":
            raise ValueError(f"{name} only has a total instance")
        view = env.require("runtime").probes.total
        return AverageRatioCounter(
            name,
            info,
            env,
            partial(getattr, view, "pending_wait_ns"),
            partial(getattr, view, "pending_waits"),
        )

    entries.append(
        CounterTypeEntry(
            info=CounterInfo(
                type_name="/threads/wait-time/pending",
                counter_type=CounterType.AVERAGE_TIMER,
                help_text="Average time a task spends staged in a queue before activation",
                unit="ns",
                instrument_ns_per_task=TIMING_INSTRUMENT_NS,
            ),
            factory=wait_factory,
            instances=lambda env: [("total", None)],
        )
    )

    def suspended_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        runtime = env.require("runtime")
        if name.instance_name != "total":
            raise ValueError(f"{name} only has a total instance")
        return RawCounter(
            name, info, env, partial(getattr, runtime.probes.total, "suspended_tasks")
        )

    entries.append(
        CounterTypeEntry(
            info=CounterInfo(
                type_name="/threads/count/instantaneous/suspended",
                counter_type=CounterType.RAW,
                help_text="Instantaneous number of suspended HPX threads "
                "(waiting on futures or mutexes)",
            ),
            factory=suspended_factory,
            instances=lambda env: [("total", None)],
        )
    )

    def active_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        runtime = env.require("runtime")
        if name.instance_name != "total":
            raise ValueError(f"{name} only has a total instance")
        return RawCounter(
            name,
            info,
            env,
            lambda: sum(1 for w in runtime.workers if w.current is not None),
        )

    entries.append(
        CounterTypeEntry(
            info=CounterInfo(
                type_name="/threads/count/instantaneous/active",
                counter_type=CounterType.RAW,
                help_text="Instantaneous number of HPX threads executing on a worker",
            ),
            factory=active_factory,
            instances=lambda env: [("total", None)],
        )
    )

    def stolen_cross_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        probes = env.require("runtime").probes
        if name.instance_name == "total":
            return MonotonicCounter(
                name,
                info,
                env,
                lambda: sum(w.steals_cross_socket for w in probes.workers),
            )
        return MonotonicCounter(
            name, info, env, partial(getattr, _probe_view(name, env), "steals_cross_socket")
        )

    entry(
        "count/stolen-cross-socket",
        CounterType.MONOTONICALLY_INCREASING,
        "Number of tasks stolen across the socket boundary",
        stolen_cross_factory,
        instrument=COUNT_INSTRUMENT_NS,
    )

    def pending_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        runtime = env.require("runtime")
        if name.instance_name == "total":
            return RawCounter(name, info, env, runtime.queue_length)
        index = name.instance_index
        if index is None or not 0 <= index < runtime.num_workers:
            raise ValueError(f"bad worker-thread index in {name}")
        return RawCounter(name, info, env, partial(runtime.worker_queue_length, index))

    entry(
        "count/instantaneous/pending",
        CounterType.RAW,
        "Instantaneous number of staged (pending) HPX threads",
        pending_factory,
    )

    def steals_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        runtime = env.require("runtime")
        if name.instance_name == "total":
            return MonotonicCounter(name, info, env, runtime.steals_total)
        return MonotonicCounter(
            name, info, env, partial(getattr, _probe_view(name, env), "steals_ok")
        )

    entry(
        "count/stolen",
        CounterType.MONOTONICALLY_INCREASING,
        "Number of tasks stolen from other workers' queues",
        steals_factory,
        instrument=COUNT_INSTRUMENT_NS,
    )

    def idle_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        probes = env.require("runtime").probes
        if name.instance_name == "total":
            return IdleRateCounter(name, info, env, probes.busy_ns, len(probes.workers))
        index = name.instance_index
        if index is None or not 0 <= index < len(probes.workers):
            raise ValueError(f"bad worker-thread index in {name}")
        return IdleRateCounter(name, info, env, partial(probes.busy_ns, index), 1)

    entry(
        "idle-rate",
        CounterType.AVERAGE_COUNT,
        "Worker idle rate since last reset, in 0.01% units",
        idle_factory,
        unit="0.01%",
        instrument=IDLE_INSTRUMENT_NS,
    )
    return entries
