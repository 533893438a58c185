"""The streaming telemetry pipeline.

One :class:`TelemetryPipeline` per run owns the whole measurement
export path the paper describes:

- **counter-set resolution** — specs (including ``#*`` wildcard
  instances and nested statistics counter names) are expanded through
  the run's :class:`~repro.counters.registry.CounterRegistry` into one
  concrete counter per stream; the pipeline is the run's set of
  *active* counters, whose instrumentation ``start()``/``stop()``
  switch on and off;
- **the paper's evaluate/reset protocol** — ``sample(reset=)`` is
  ``hpx::evaluate_active_counters``: it evaluates every resolved
  counter at the current simulated instant (optionally re-baselining
  it) and converts the readings into
  :class:`~repro.telemetry.sample.Sample` records; ``reset()`` is
  ``hpx::reset_active_counters``.  Cadence is driven by
  :class:`~repro.counters.query.PeriodicQuery` for interval sampling,
  or by a single end-of-run call;
- **bounded buffering with drop accounting** — the in-memory frame
  retains at most ``buffer_limit`` samples (or one whole evaluation,
  when that is larger) and always ends with the latest evaluation;
  overflow is *counted* (``dropped``), never silent, while streaming
  sinks still receive every record;
- **pluggable sinks** — CSV, JSON-lines, Chrome-trace, in-memory
  frames, or anything implementing ``emit(sample)`` / ``close()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.counters.base import PerformanceCounter
from repro.counters.registry import CounterRegistry
from repro.counters.types import CounterValue
from repro.telemetry.frame import TelemetryFrame
from repro.telemetry.sample import Sample
from repro.telemetry.sinks import ensure_sink

#: Samples retained in the in-memory frame before drop accounting kicks
#: in.  Generous for interval sampling (a 0.1 ms cadence over a 100 ms
#: run with the paper's 9-counter set is ~9000 samples) while bounding
#: memory for adversarial cadences.
DEFAULT_BUFFER_LIMIT = 65_536

#: The software counters of Section V-C.
SOFTWARE_COUNTERS = (
    "/threads{locality#0/total}/time/average",
    "/threads{locality#0/total}/time/average-overhead",
    "/threads{locality#0/total}/time/cumulative",
    "/threads{locality#0/total}/time/cumulative-overhead",
    "/threads{locality#0/total}/count/cumulative",
    "/threads{locality#0/total}/idle-rate",
)

#: The offcore PAPI counters summed for the bandwidth estimate.
PAPI_COUNTERS = (
    "/papi{locality#0/total}/OFFCORE_REQUESTS:ALL_DATA_RD",
    "/papi{locality#0/total}/OFFCORE_REQUESTS:DEMAND_CODE_RD",
    "/papi{locality#0/total}/OFFCORE_REQUESTS:DEMAND_RFO",
)

#: The paper's counter set: what ``counters=None`` collects.
DEFAULT_COUNTERS = SOFTWARE_COUNTERS + PAPI_COUNTERS


@dataclass(frozen=True)
class TelemetryConfig:
    """Declarative telemetry wiring for :meth:`repro.api.Session.run`.

    ``counters=None`` means the paper's software + PAPI counters and
    ``()`` means none; ``interval_ns`` enables periodic sampling during
    the run (in-band: each sample costs simulated scheduler time);
    ``buffer_limit`` bounds the in-memory frame.  These three are part
    of the run's :class:`~repro.api.RunSpec`.  ``sinks`` only watch:
    they receive every sample as it is recorded, and stay out of the
    run's key.
    """

    counters: tuple[str, ...] | None = None
    interval_ns: int | None = None
    sinks: tuple[Any, ...] = ()
    buffer_limit: int = DEFAULT_BUFFER_LIMIT

    def __post_init__(self) -> None:
        if self.interval_ns is not None and self.interval_ns <= 0:
            raise ValueError("interval_ns must be positive when given")
        if self.buffer_limit < 1:
            raise ValueError("buffer_limit must be >= 1")
        if self.counters is not None:
            object.__setattr__(self, "counters", tuple(self.counters))
        object.__setattr__(self, "sinks", tuple(self.sinks))
        for sink in self.sinks:
            ensure_sink(sink)


class TelemetryPipeline:
    """Resolved counter set + bounded buffer + sink fan-out for one run."""

    def __init__(
        self,
        registry: CounterRegistry,
        specs: Sequence[str],
        *,
        run_id: str = "",
        sinks: Sequence[Any] = (),
        buffer_limit: int = DEFAULT_BUFFER_LIMIT,
        frame: TelemetryFrame | None = None,
    ) -> None:
        if buffer_limit < 1:
            raise ValueError("buffer_limit must be >= 1")
        self.sinks = [ensure_sink(sink) for sink in sinks]
        # Counter-set resolution: the registry runs wildcard discovery
        # and nested statistics/arithmetics construction.
        self.counters: list[PerformanceCounter] = registry.create_counters(specs)
        self.run_id = run_id
        self.buffer_limit = buffer_limit
        self.frame = frame if frame is not None else TelemetryFrame()
        self.dropped = 0
        self.samples_recorded = 0
        # Per-counter static metadata, resolved once: canonical name,
        # instance part, unit.  Evaluation order is the plan order.
        self._plan = [(str(c.name), c.name.full_instance, c.info.unit) for c in self.counters]
        # The bound evaluator of every counter, resolved once: periodic
        # sampling calls this list per tick.
        self._evaluators = [c.get_counter_value for c in self.counters]

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.counters)

    def names(self) -> list[str]:
        """Fully-resolved concrete counter names (wildcards expanded)."""
        return [name for name, _, _ in self._plan]

    # -- life cycle --------------------------------------------------------

    def start(self) -> None:
        """Activate counter instrumentation (charges the runtime).

        Idempotent: each counter registers its instrumentation once."""
        for counter in self.counters:
            counter.start()

    def stop(self) -> None:
        """Deactivate counter instrumentation; idempotent like ``start``."""
        for counter in self.counters:
            counter.stop()

    def reset(self) -> None:
        """Re-baseline every resolved counter (``hpx::reset_active_counters``)."""
        for counter in self.counters:
            counter.reset()

    def __enter__(self) -> "TelemetryPipeline":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()
        self.close()

    # -- sampling ----------------------------------------------------------

    def sample(self, *, reset: bool = False) -> list[CounterValue]:
        """Evaluate every counter now, record the readings, return them.

        This is ``hpx::evaluate_active_counters(reset)``: one
        :class:`CounterValue` per resolved counter, in plan order, each
        exactly what the counter's ``get_counter_value`` returns; with
        ``reset=True`` every counter is re-baselined as it is read.
        """
        values = [evaluate(reset=reset) for evaluate in self._evaluators]
        self.record(values)
        return values

    def record(self, values: Sequence[CounterValue]) -> list[Sample]:
        """Convert one evaluation's readings into samples and route them.

        ``values`` must be in plan order (the order ``sample()``
        produces).
        """
        if len(values) != len(self._plan):
            raise ValueError(
                f"expected {len(self._plan)} counter values (one per resolved "
                f"counter), got {len(values)}"
            )
        batch = [
            Sample(
                name=name,
                instance=instance,
                timestamp_ns=value.time,
                value=value.value,
                unit=unit,
                run_id=self.run_id,
            )
            for (name, instance, unit), value in zip(self._plan, values)
        ]
        self.samples_recorded += len(batch)
        # A full frame evicts its newest samples to keep this evaluation
        # whole: ``frame.totals()`` is then a finished run's final one.
        retained = self.frame.samples
        overflow = len(retained) + len(batch) - self.buffer_limit
        if overflow > 0:
            evicted = min(overflow, len(retained))
            del retained[len(retained) - evicted :]
            self.dropped += evicted
        retained.extend(batch)
        for sample in batch:
            for sink in self.sinks:
                sink.emit(sample)
        return batch

    # -- teardown ----------------------------------------------------------

    def close(self) -> None:
        """Close every sink (owned files are flushed and closed)."""
        for sink in self.sinks:
            sink.close()
