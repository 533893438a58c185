"""Versioned JSON campaign artifacts.

One file per campaign under ``results/campaigns/``:

- ``schema`` / ``code_version`` — format and producer versions;
- ``environment`` — interpreter, platform and simulated-machine
  metadata for provenance;
- ``spec`` — the full :class:`~repro.campaign.spec.CampaignSpec`;
- ``cells`` — every (benchmark, runtime, cores, sample) run with its
  cache key and its result's :meth:`~repro.api.RunResult.to_json`
  form; counter readings are stored as the run's full telemetry
  sample stream (``telemetry`` rows), and profiled cells carry a
  ``profile`` summary;
- ``points`` — per (benchmark, runtime, cores) aggregates (medians,
  abort status) — the exact data behind the paper's figures and tables.

Cells are stored in the spec's canonical enumeration order and encoded
with sorted keys, so two campaigns over the same spec are comparable
cell-for-cell regardless of execution order or parallelism.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro._version import __version__
from repro.api import RunResult, canonical_json
from repro.campaign.spec import CampaignSpec, Cell
from repro.experiments.harness import ScalingCurve, aggregate_point

#: Artifact format version; bump on breaking layout changes.  Only the
#: current schema loads.  Schema 2 replaced the final ``counters`` dict
#: with the full telemetry sample stream (``telemetry`` rows); schema 3
#: added the per-cell ``profile`` summary (the
#: :meth:`~repro.profiler.report.RunProfile.to_json_dict` form) and the
#: spec's ``profile`` flag; schema 4 replaced the spec's
#: ``collect_counters``/``counter_specs`` pair with one ``counters`` list
#: (``null``: the paper's set, ``[]``: off).
ARTIFACT_SCHEMA = 4


def _require(data: Mapping[str, Any], what: str, keys: tuple[str, ...]) -> None:
    """Raise ``ValueError`` naming the first of *keys* that *data* lacks."""
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing required key {key!r}")


@dataclass(frozen=True)
class CellResult:
    """One executed (or cache-restored) cell."""

    cell: Cell
    key: str  # content-addressed cache key
    result: dict[str, Any]  # RunResult.to_json() of the cell's run

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "benchmark": self.cell.benchmark,
            "runtime": self.cell.runtime,
            "cores": self.cell.cores,
            "sample": self.cell.sample,
            "seed": self.cell.seed,
            "key": self.key,
            "result": dict(self.result),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "CellResult":
        _require(data, "cell", ("benchmark", "runtime", "cores", "sample", "seed", "key", "result"))
        cell = Cell(
            benchmark=data["benchmark"],
            runtime=data["runtime"],
            cores=data["cores"],
            sample=data["sample"],
            seed=data["seed"],
        )
        return cls(cell=cell, key=data["key"], result=dict(data["result"]))


def collect_environment(spec: CampaignSpec) -> dict[str, Any]:
    """Provenance metadata recorded in the artifact."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine_spec": spec.platform.name,
    }


@dataclass
class CampaignArtifact:
    """In-memory form of one campaign artifact file."""

    spec: CampaignSpec
    cells: list[CellResult]
    code_version: str = __version__
    created_unix: int = 0
    environment: dict[str, Any] = field(default_factory=dict)
    _points: dict[tuple[str, str], ScalingCurve] | None = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def build(cls, spec: CampaignSpec, cells: list[CellResult]) -> "CampaignArtifact":
        """Assemble an artifact from freshly-executed cells."""
        return cls(
            spec=spec,
            cells=cells,
            created_unix=int(time.time()),
            environment=collect_environment(spec),
        )

    # -- aggregation ---------------------------------------------------

    def curves(self) -> dict[tuple[str, str], ScalingCurve]:
        """All (benchmark, runtime) scaling curves, aggregated once."""
        if self._points is None:
            grouped: dict[tuple[str, str, int], list[CellResult]] = {}
            for cr in self.cells:
                grouped.setdefault(
                    (cr.cell.benchmark, cr.cell.runtime, cr.cell.cores), []
                ).append(cr)
            curves: dict[tuple[str, str], ScalingCurve] = {}
            for (benchmark, runtime, cores), members in grouped.items():
                members.sort(key=lambda cr: cr.cell.sample)
                runs = [
                    RunResult.from_json(cr.result, self.spec.run_spec(cr.cell)) for cr in members
                ]
                point = aggregate_point(cores, runs)
                curve = curves.setdefault(
                    (benchmark, runtime),
                    ScalingCurve(benchmark=benchmark, runtime=runtime, points=[]),
                )
                curve.points.append(point)
            for curve in curves.values():
                curve.points.sort(key=lambda p: p.cores)
            self._points = curves
        return self._points

    def curve(self, benchmark: str, runtime: str) -> ScalingCurve:
        """The scaling curve for one benchmark/runtime pair."""
        try:
            return self.curves()[(benchmark, runtime)]
        except KeyError:
            have = ", ".join(sorted(f"{b}/{r}" for b, r in self.curves()))
            raise KeyError(
                f"artifact has no cells for {benchmark}/{runtime}; contains: {have}"
            ) from None

    def points_json(self) -> list[dict[str, Any]]:
        """Per-point aggregates in a stable order (artifact ``points``)."""
        rows = []
        for (benchmark, runtime), curve in sorted(self.curves().items()):
            for p in curve.points:
                rows.append(
                    {
                        "benchmark": benchmark,
                        "runtime": runtime,
                        "cores": p.cores,
                        "aborted": p.aborted,
                        "median_exec_ns": p.median_exec_ns,
                        "exec_samples": list(p.exec_samples),
                        "counters": dict(p.counters),
                        "tasks_executed": p.tasks_executed,
                        "peak_live_tasks": p.peak_live_tasks,
                        "offcore_bytes": p.offcore_bytes,
                    }
                )
        return rows

    # -- (de)serialization ---------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": ARTIFACT_SCHEMA,
            "kind": "repro-campaign",
            "code_version": self.code_version,
            "created_unix": self.created_unix,
            "environment": dict(self.environment),
            "spec": self.spec.to_json_dict(),
            "cells": [cr.to_json_dict() for cr in self.cells],
            "points": self.points_json(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)

    def cells_json(self) -> str:
        """Canonical encoding of the cells alone (determinism checks)."""
        return canonical_json([cr.to_json_dict() for cr in self.cells])

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "CampaignArtifact":
        if data.get("kind") != "repro-campaign":
            raise ValueError("not a campaign artifact (missing kind=repro-campaign)")
        schema = data.get("schema")
        if schema != ARTIFACT_SCHEMA:
            raise ValueError(
                f"unsupported artifact schema {schema!r}; this build reads only "
                f"schema {ARTIFACT_SCHEMA}"
            )
        _require(data, "artifact", ("spec", "cells", "code_version", "created_unix", "environment"))
        return cls(
            spec=CampaignSpec.from_json_dict(data["spec"]),
            cells=[CellResult.from_json_dict(c) for c in data["cells"]],
            code_version=data["code_version"],
            created_unix=data["created_unix"],
            environment=dict(data["environment"]),
        )

    def save(self, path: Path | str) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Path | str) -> "CampaignArtifact":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json_dict(json.load(handle))
