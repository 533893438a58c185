"""In-memory telemetry frame: the sink used by tests and campaign artifacts.

A :class:`TelemetryFrame` is both a sink (it implements ``emit`` /
``close``) and the queryable result of a run's telemetry: ordered
sample rows with per-counter series and final totals.  Campaign
artifacts persist frames and rebuild a run's ``counters`` dict with
``totals()``, which for a finished run is, bit for bit, its final
evaluation.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

from repro.telemetry.sample import Sample


class TelemetryFrame:
    """Ordered, queryable collection of :class:`Sample` rows."""

    __slots__ = ("samples",)

    def __init__(self, samples: Iterable[Sample] = ()) -> None:
        self.samples: list[Sample] = list(samples)

    # -- sink interface ----------------------------------------------------

    def emit(self, sample: Sample) -> None:
        self.samples.append(sample)

    def close(self) -> None:
        """Frames hold no external resources."""

    # -- container protocol ------------------------------------------------

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TelemetryFrame({len(self.samples)} samples, {len(self.names())} counters)"

    # -- queries -----------------------------------------------------------

    def names(self) -> list[str]:
        """Counter names in first-appearance order."""
        seen: dict[str, None] = {}
        for sample in self.samples:
            seen.setdefault(sample.name, None)
        return list(seen)

    def series(self, name: str) -> list[Sample]:
        """Every sample of one counter, in emission order."""
        return [s for s in self.samples if s.name == name]

    def value(self, name: str) -> float:
        """Final value of one counter; KeyError lists what exists."""
        for sample in reversed(self.samples):
            if sample.name == name:
                return sample.value
        known = "\n  ".join(self.names())
        raise KeyError(f"no counter {name!r} in frame; collected:\n  {known}")

    def totals(self) -> dict[str, float]:
        """{name: final value} — the counter-dict view.

        The *last* sample per counter wins, so for a run that sampled
        periodically and then evaluated once at termination this is
        exactly the run's final evaluation.
        """
        out: dict[str, float] = {}
        for sample in self.samples:
            out[sample.name] = sample.value
        return out

    def units(self) -> dict[str, str]:
        """{name: unit} over every counter seen."""
        out: dict[str, str] = {}
        for sample in self.samples:
            out.setdefault(sample.name, sample.unit)
        return out

    def timestamps(self) -> list[int]:
        """Distinct sample timestamps, ascending."""
        return sorted({s.timestamp_ns for s in self.samples})

    # -- (de)serialization -------------------------------------------------

    def to_rows(self) -> list[dict[str, Any]]:
        return [s.to_row() for s in self.samples]

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[str, Any]]) -> "TelemetryFrame":
        return cls(Sample.from_row(row) for row in rows)
