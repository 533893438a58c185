"""Counter interfaces and the evaluation environment.

A :class:`PerformanceCounter` exposes the predefined interface the
paper describes: evaluate (``get_counter_value``), ``reset``,
``start``/``stop``.  Reset semantics follow HPX: monotonic and
averaging counters snapshot a baseline and subsequent evaluations
report deltas relative to it — this is what makes the paper's
per-sample ``evaluate_active_counters`` / ``reset_active_counters``
protocol work.

Counters that require runtime instrumentation (per-task timestamping,
PAPI reads at context switches) declare a per-task cost; ``start``
registers it with the runtime and ``stop`` removes it, so active
counters perturb the simulated application exactly as Section V-C
reports (≤10 % software, ≤16 % PAPI for very fine tasks).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable

from repro.counters.names import CounterName
from repro.counters.types import CounterStatus, CounterType, CounterValue


@dataclass
class CounterEnvironment:
    """Everything counters may observe.

    One environment is built per application run and handed to the
    registry; counter factories pull what they need from it.
    """

    engine: Any  # repro.simcore.events.Engine
    runtime: Any = None  # any repro.exec.backend.SchedulerBackend
    machine: Any = None  # repro.simcore.machine.Machine
    papi: Any = None  # repro.papi.hw.PapiSubstrate
    profiler: Any = None  # repro.profiler.builder.ProfileBuilder
    registry: Any = None  # back-reference, set by the registry itself

    def require(self, attr: str) -> Any:
        value = getattr(self, attr)
        if value is None:
            raise RuntimeError(f"counter requires environment component {attr!r}")
        return value


@dataclass(frozen=True)
class CounterInfo:
    """Static metadata of a counter type (shown by ``repro counters list``)."""

    type_name: str  # e.g. "/threads/time/average"
    counter_type: CounterType
    help_text: str
    unit: str = ""
    # Per-task instrumentation cost while a counter of this type is
    # active, charged to the runtime's scheduling overhead.
    instrument_ns_per_task: int = 0


class PerformanceCounter(abc.ABC):
    """Base class: one live counter instance."""

    def __init__(self, name: CounterName, info: CounterInfo, env: CounterEnvironment) -> None:
        self.name = name
        self.info = info
        self.env = env
        self.evaluations = 0
        self._started = False

    # -- core interface ---------------------------------------------------

    @abc.abstractmethod
    def read(self) -> float:
        """Current value relative to the last reset."""

    def reset(self) -> None:
        """Re-baseline the counter.  Default: no-op (raw counters)."""

    def get_counter_value(self, *, reset: bool = False) -> CounterValue:
        """Evaluate the counter; optionally reset it atomically."""
        self.evaluations += 1
        value = CounterValue(
            name=str(self.name),
            value=self.read(),
            time=self.env.engine.now,
            count=self.evaluations,
            status=CounterStatus.VALID_DATA,
        )
        if reset:
            self.reset()
        return value

    # -- life cycle ----------------------------------------------------------

    def start(self) -> None:
        """Activate instrumentation for this counter."""
        if self._started:
            return
        self._started = True
        cost = self.info.instrument_ns_per_task
        if cost and self.env.runtime is not None:
            self.env.runtime.add_instrumentation(cost)

    def stop(self) -> None:
        """Deactivate instrumentation."""
        if not self._started:
            return
        self._started = False
        cost = self.info.instrument_ns_per_task
        if cost and self.env.runtime is not None:
            self.env.runtime.add_instrumentation(-cost)


class RawCounter(PerformanceCounter):
    """Instantaneous value from a source callable (e.g. queue length)."""

    def __init__(
        self,
        name: CounterName,
        info: CounterInfo,
        env: CounterEnvironment,
        source: Callable[[], float],
    ) -> None:
        super().__init__(name, info, env)
        self._source = source

    def read(self) -> float:
        return float(self._source())


class MonotonicCounter(PerformanceCounter):
    """Cumulative count/time; reset snapshots a baseline."""

    def __init__(
        self,
        name: CounterName,
        info: CounterInfo,
        env: CounterEnvironment,
        source: Callable[[], float],
    ) -> None:
        super().__init__(name, info, env)
        self._source = source
        self._baseline = 0.0

    def read(self) -> float:
        return float(self._source()) - self._baseline

    def reset(self) -> None:
        self._baseline = float(self._source())


class AverageRatioCounter(PerformanceCounter):
    """Δnumerator / Δdenominator since the last reset.

    Backs ``/threads/time/average`` (Δexec-time / Δtasks) and
    ``/threads/time/average-overhead``.
    """

    def __init__(
        self,
        name: CounterName,
        info: CounterInfo,
        env: CounterEnvironment,
        numerator: Callable[[], float],
        denominator: Callable[[], float],
    ) -> None:
        super().__init__(name, info, env)
        self._num = numerator
        self._den = denominator
        self._num_base = 0.0
        self._den_base = 0.0

    def read(self) -> float:
        dn = float(self._num()) - self._num_base
        dd = float(self._den()) - self._den_base
        return dn / dd if dd else 0.0

    def reset(self) -> None:
        self._num_base = float(self._num())
        self._den_base = float(self._den())


class ElapsedTimeCounter(PerformanceCounter):
    """Simulated wall time (ns) since the last reset."""

    def __init__(self, name: CounterName, info: CounterInfo, env: CounterEnvironment) -> None:
        super().__init__(name, info, env)
        self._baseline = 0

    def read(self) -> float:
        return float(self.env.engine.now - self._baseline)

    def reset(self) -> None:
        self._baseline = self.env.engine.now
