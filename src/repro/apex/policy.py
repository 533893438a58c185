"""The APEX policy engine.

Periodically samples a set of performance counters and runs user
policies over the sample.  Policies return decisions (or ``None``);
every fired decision is recorded with its simulated timestamp, so
adaptation behaviour is fully inspectable after a run.

The engine is a :class:`~repro.telemetry.pipeline.TelemetryPipeline`
driven by an out-of-band
:class:`~repro.counters.query.PeriodicQuery` that resets the counters
at every sample; the policies run as the query's per-evaluation
callback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.counters.query import PeriodicQuery
from repro.counters.registry import CounterRegistry
from repro.counters.types import CounterValue
from repro.telemetry.pipeline import TelemetryPipeline


@dataclass(frozen=True)
class PolicyDecision:
    """One action taken by a policy."""

    action: str
    value: Any = None


@dataclass
class PolicyRule:
    """A named policy: ``fn(sample, time_ns) -> PolicyDecision | None``.

    *sample* maps counter names to values for the current period
    (counters are reset each period, so rate-like counters read
    per-period values).
    """

    name: str
    fn: Callable[[dict[str, float], int], PolicyDecision | None]


@dataclass
class FiredDecision:
    time_ns: int
    rule: str
    decision: PolicyDecision


class PolicyEngine:
    """Sample counters on a period; apply policies on each sample."""

    def __init__(
        self,
        *,
        engine: Any,
        runtime: Any,
        registry: CounterRegistry,
        counter_specs: Sequence[str],
        period_ns: int,
        rules: Sequence[PolicyRule] = (),
    ) -> None:
        if period_ns <= 0:
            raise ValueError("period_ns must be positive")
        self.engine = engine
        self.pipeline = TelemetryPipeline(registry, counter_specs)
        self.query = PeriodicQuery(
            self.pipeline,
            engine=engine,
            runtime=runtime,
            interval_ns=period_ns,
            sink=self._apply,
            in_band=False,
            reset_each_sample=True,
        )
        self.rules: list[PolicyRule] = list(rules)
        self.history: list[FiredDecision] = []
        self.samples: list[dict[str, float]] = []

    def add_rule(self, rule: PolicyRule) -> None:
        self.rules.append(rule)

    def start(self) -> None:
        """Begin sampling; each period's sample reads from zeroed counters."""
        self.query.start()

    def stop(self) -> None:
        self.query.stop()

    def _apply(self, values: list[CounterValue]) -> None:
        sample = {v.name: v.value for v in values}
        self.samples.append(sample)
        now = self.engine.now
        for rule in self.rules:
            decision = rule.fn(sample, now)
            if decision is not None:
                self.history.append(FiredDecision(time_ns=now, rule=rule.name, decision=decision))
