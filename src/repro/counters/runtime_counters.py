"""General runtime counters (``/runtime/...``)."""

from __future__ import annotations

from repro.counters.base import (
    CounterEnvironment,
    CounterInfo,
    ElapsedTimeCounter,
    PerformanceCounter,
    RawCounter,
)
from repro.counters.names import CounterName
from repro.counters.registry import CounterTypeEntry
from repro.counters.types import CounterType


def _total_only(env: CounterEnvironment) -> list[tuple[str, int | None]]:
    return [("total", None)]


def runtime_counter_types(env: CounterEnvironment) -> list[CounterTypeEntry]:
    """``/runtime/uptime``, ``/runtime/count/tasks-live`` and
    ``/scheduler/utilization/instantaneous`` (provider ``builtin.runtime``)."""

    def uptime_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        return ElapsedTimeCounter(name, info, env)

    def live_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        runtime = env.require("runtime")
        return RawCounter(name, info, env, lambda: runtime.stats.live_tasks)

    def utilization_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        runtime = env.require("runtime")

        def read() -> float:
            busy = sum(1 for w in runtime.workers if w.current is not None)
            return busy / runtime.num_workers * 100.0

        return RawCounter(name, info, env, read)

    return [
        CounterTypeEntry(
            info=CounterInfo(
                type_name="/runtime/uptime",
                counter_type=CounterType.ELAPSED_TIME,
                help_text="Simulated wall time since last reset",
                unit="ns",
            ),
            factory=uptime_factory,
            instances=_total_only,
        ),
        CounterTypeEntry(
            info=CounterInfo(
                type_name="/runtime/count/tasks-live",
                counter_type=CounterType.RAW,
                help_text="Instantaneous number of live (unterminated) tasks",
            ),
            factory=live_factory,
            instances=_total_only,
        ),
        CounterTypeEntry(
            info=CounterInfo(
                type_name="/scheduler/utilization/instantaneous",
                counter_type=CounterType.RAW,
                help_text="Percentage of workers currently executing a task",
                unit="%",
            ),
            factory=utilization_factory,
            instances=_total_only,
        ),
    ]
