"""Task Bench counters (``/taskbench/...``).

The live half of the METG story: ``/taskbench/efficiency`` reports the
*realized* parallel efficiency of the run so far — cumulative busy
time over ``workers x wall`` since the last reset, the complement of
``/threads/idle-rate`` — in the HPX 0.01 % convention (a reading of
9500 means 95 % efficient).  It reads the ProbeBus like every other
counter, so it works on both runtime backends and on any workload,
not just Task Bench graphs.

The sweep-level derived names (``/taskbench{locality#0/<shape>}/
metg@<eps>`` and ``.../efficiency@<grain_ns>``) are emitted by
:meth:`repro.taskbench.metg.MetgResult.to_samples` — they summarize
many runs, so no single run's registry can evaluate them live.
"""

from __future__ import annotations

from functools import partial

from repro.counters.base import CounterEnvironment, CounterInfo, PerformanceCounter
from repro.counters.names import CounterName
from repro.counters.registry import CounterTypeEntry
from repro.counters.types import CounterType

from repro.counters.threads_counters import IDLE_INSTRUMENT_NS

__all__ = ["EfficiencyCounter", "taskbench_counter_types"]


class EfficiencyCounter(PerformanceCounter):
    """Realized parallel efficiency since reset: busy / (wall x workers),
    in units of 0.01 % (HPX convention)."""

    def __init__(
        self,
        name: CounterName,
        info: CounterInfo,
        env: CounterEnvironment,
        busy_source,
        num_workers: int,
    ) -> None:
        super().__init__(name, info, env)
        self._busy = busy_source
        self._n = num_workers
        self._busy_base = 0
        self._wall_base = 0

    def read(self) -> float:
        """Current efficiency in 0.01 % units (0 before any wall time)."""
        wall = (self.env.engine.now - self._wall_base) * self._n
        if wall <= 0:
            return 0.0
        busy = self._busy() - self._busy_base
        return min(1.0, max(0.0, busy / wall)) * 10000.0

    def reset(self) -> None:
        """Re-baseline busy time and wall clock at the current instant."""
        self._busy_base = self._busy()
        self._wall_base = self.env.engine.now


def taskbench_counter_types(env: CounterEnvironment) -> list[CounterTypeEntry]:
    """The ``/taskbench/...`` counter types (provider ``builtin.taskbench``)."""

    def efficiency_factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        probes = env.require("runtime").probes
        if name.instance_name == "total":
            return EfficiencyCounter(name, info, env, probes.busy_ns, len(probes.workers))
        index = name.instance_index
        if name.instance_name != "worker-thread" or index is None:
            raise ValueError(f"unknown instance {name.instance_name!r} in {name}")
        if not 0 <= index < len(probes.workers):
            raise ValueError(f"bad worker-thread index in {name}")
        return EfficiencyCounter(name, info, env, partial(probes.busy_ns, index), 1)

    return [
        CounterTypeEntry(
            info=CounterInfo(
                type_name="/taskbench/efficiency",
                counter_type=CounterType.AVERAGE_COUNT,
                help_text="Realized parallel efficiency since last reset "
                "(busy / wall x workers), in 0.01% units",
                unit="0.01%",
                instrument_ns_per_task=IDLE_INSTRUMENT_NS,
            ),
            factory=efficiency_factory,
        )
    ]
