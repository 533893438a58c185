"""Causal what-if experiments: "speed up task body X by N%".

TASKPROF-style virtual speedups, in two halves:

- **prediction** — re-weight the recorded task DAG (every task of the
  chosen body scaled by ``1 - pct/100``) and push baseline makespan
  through Brent's bound ``T_P ≈ (W - S)/P + S``;
- **validation** — actually rewrite the work costs through
  :meth:`~repro.exec.interp.EffectInterpreter.set_compute_rewriter`
  and replay the run through the exact DES engine.

The 0 % experiment is the built-in soundness check: the rewriter
returns the identical :class:`~repro.model.work.Work` objects
(``scaled(1.0)`` is ``self``), so the replay is bit-identical to the
baseline and the predicted delta is exactly zero.  What-if replays are
exact-mode only — cohort runs collapse task populations and have no
per-task DAG to rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Collection


@dataclass(frozen=True)
class WhatIfSpec:
    """One requested experiment: speed *body* up by *speedup_pct* percent."""

    body: str
    speedup_pct: float

    def __post_init__(self) -> None:
        if not self.body:
            raise ValueError("what-if experiment needs a task body name")
        if not 0.0 <= self.speedup_pct <= 100.0:
            raise ValueError(
                f"what-if speedup must be between 0 and 100 percent, got {self.speedup_pct}"
            )
        # One spelling per value: 50 and 50.0 are one experiment, one key.
        object.__setattr__(self, "speedup_pct", float(self.speedup_pct))

    @property
    def factor(self) -> float:
        """Cost multiplier applied to the body's work (1.0 at 0 %)."""
        return 1.0 - self.speedup_pct / 100.0


def parse_what_if(text: str) -> WhatIfSpec:
    """Parse the CLI spelling ``body=NAME,speedup=PCT``."""
    fields: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad what-if field {part!r}; expected body=NAME,speedup=PCT")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"body", "speedup"}
    if unknown:
        raise ValueError(f"unknown what-if field(s) {', '.join(sorted(unknown))!s}")
    if "body" not in fields or "speedup" not in fields:
        raise ValueError(f"what-if spec {text!r} must provide both body= and speedup=")
    try:
        pct = float(fields["speedup"])
    except ValueError:
        raise ValueError(f"what-if speedup {fields['speedup']!r} is not a number") from None
    return WhatIfSpec(body=fields["body"], speedup_pct=pct)


def resolve_body(name: str, bodies: Collection[str]) -> str:
    """Resolve a user-spelled body name: exact, else unique substring."""
    if name in bodies:
        return name
    matches = sorted(b for b in bodies if name in b)
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise ValueError(
            f"unknown task body {name!r}; profiled bodies: {', '.join(sorted(bodies))}"
        )
    raise ValueError(f"ambiguous task body {name!r}; matches: {', '.join(matches)}")


class BodyRewriter:
    """The work rewriter for one experiment (counts its rewrites)."""

    __slots__ = ("body", "factor", "rewritten")

    def __init__(self, body: str, factor: float) -> None:
        self.body = body
        self.factor = factor
        self.rewritten = 0

    def __call__(self, task: Any, work: Any) -> Any:
        if task.description != self.body:
            return work
        self.rewritten += 1
        return work.scaled(self.factor)


def predict_makespan_ns(
    *,
    baseline_makespan_ns: int,
    cores: int,
    base_work_ns: int,
    base_span_ns: int,
    scaled_work_ns: int,
    scaled_span_ns: int,
) -> int:
    """Brent-bound prediction of the rewritten run's makespan.

    Both runs are modelled as ``T_P ≈ (W - S)/P + S`` and the baseline
    makespan is scaled by the ratio — runtime overheads (which the DAG
    does not see) are assumed to scale with the modelled time.  With
    unchanged weights the ratio is exactly 1.
    """
    base = max(base_work_ns - base_span_ns, 0) / cores + base_span_ns
    scaled = max(scaled_work_ns - scaled_span_ns, 0) / cores + scaled_span_ns
    if base <= 0:
        return baseline_makespan_ns
    return round(baseline_makespan_ns * scaled / base)


@dataclass(frozen=True)
class WhatIfResult:
    """One validated experiment: prediction vs the replayed DES run."""

    body: str
    speedup_pct: float
    baseline_makespan_ns: int
    predicted_makespan_ns: int
    replayed_makespan_ns: int
    rewritten_computes: int
    scaled_work_ns: int
    scaled_span_ns: int

    @property
    def predicted_speedup(self) -> float:
        if not self.predicted_makespan_ns:
            return 0.0
        return self.baseline_makespan_ns / self.predicted_makespan_ns

    @property
    def realized_speedup(self) -> float:
        if not self.replayed_makespan_ns:
            return 0.0
        return self.baseline_makespan_ns / self.replayed_makespan_ns

    @property
    def prediction_error(self) -> float:
        """Signed relative error of the prediction vs the replay."""
        if not self.replayed_makespan_ns:
            return 0.0
        return (
            self.predicted_makespan_ns - self.replayed_makespan_ns
        ) / self.replayed_makespan_ns

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "body": self.body,
            "speedup_pct": self.speedup_pct,
            "baseline_makespan_ns": self.baseline_makespan_ns,
            "predicted_makespan_ns": self.predicted_makespan_ns,
            "replayed_makespan_ns": self.replayed_makespan_ns,
            "rewritten_computes": self.rewritten_computes,
            "scaled_work_ns": self.scaled_work_ns,
            "scaled_span_ns": self.scaled_span_ns,
            "predicted_speedup": round(self.predicted_speedup, 6),
            "realized_speedup": round(self.realized_speedup, 6),
            "prediction_error": round(self.prediction_error, 6),
        }

    def render(self) -> str:
        return (
            f"{self.body} -{self.speedup_pct:g}%: "
            f"predicted {self.predicted_makespan_ns / 1e6:.3f} ms "
            f"({self.predicted_speedup:.3f}x), "
            f"replayed {self.replayed_makespan_ns / 1e6:.3f} ms "
            f"({self.realized_speedup:.3f}x), "
            f"error {100.0 * self.prediction_error:+.2f}% "
            f"[{self.rewritten_computes} computes rewritten]"
        )
