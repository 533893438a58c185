"""The single sample-record model of the telemetry pipeline.

Everything the measurement side of the reproduction emits — final
counter evaluations, periodic in-band query rows, campaign artifact
cells — is a stream of :class:`Sample` records.  One record is one
counter instance read at one simulated timestamp; the paper's export
path ("the counters are sampled in an interval and exported") maps to
exactly this shape.

A :class:`Sample` is frozen and JSON-friendly: :meth:`Sample.to_row` /
:meth:`Sample.from_row` round-trip losslessly through plain dicts,
which is what the CSV/JSONL sinks and the versioned campaign artifact
schema serialize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

#: Column order used by every tabular export (CSV header, JSONL keys).
SAMPLE_FIELDS = ("name", "instance", "timestamp_ns", "value", "unit", "run_id")


@dataclass(frozen=True, slots=True)
class Sample:
    """One counter reading at one simulated instant.

    ``name`` is the full canonical counter name
    (``/threads{locality#0/worker-thread#1}/time/average``);
    ``instance`` is the resolved instance part alone
    (``locality#0/worker-thread#1`` — for statistics counters this is
    the embedded underlying counter name); ``unit`` comes from the
    counter type's :class:`~repro.counters.base.CounterInfo`; and
    ``run_id`` tags which run of a campaign/session emitted the record.
    """

    name: str
    instance: str
    timestamp_ns: int
    value: float
    unit: str = ""
    run_id: str = ""

    def to_row(self) -> dict[str, Any]:
        """Plain-dict form (the JSONL object / artifact row)."""
        return {
            "name": self.name,
            "instance": self.instance,
            "timestamp_ns": self.timestamp_ns,
            "value": self.value,
            "unit": self.unit,
            "run_id": self.run_id,
        }

    @classmethod
    def from_row(cls, row: Mapping[str, Any]) -> "Sample":
        """Rebuild a sample from its :meth:`to_row` form."""
        return cls(
            name=row["name"],
            instance=row.get("instance", ""),
            timestamp_ns=int(row["timestamp_ns"]),
            value=float(row["value"]),
            unit=row.get("unit", ""),
            run_id=row.get("run_id", ""),
        )
