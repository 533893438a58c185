"""Artifact format: roundtrip, aggregation, harness equivalence."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.campaign.artifact import ARTIFACT_SCHEMA, CampaignArtifact
from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import run_strong_scaling

RESULTS = Path(__file__).resolve().parents[2] / "results"


def test_save_load_roundtrip(small_run, tmp_path):
    path = small_run.artifact.save(tmp_path / "campaigns" / "small.json")
    loaded = CampaignArtifact.load(path)
    assert loaded.spec == small_run.artifact.spec
    assert loaded.cells == small_run.artifact.cells
    assert loaded.cells_json() == small_run.artifact.cells_json()


def test_artifact_is_versioned(small_run, tmp_path):
    path = small_run.artifact.save(tmp_path / "a.json")
    data = json.loads(path.read_text())
    assert data["schema"] == ARTIFACT_SCHEMA
    assert data["kind"] == "repro-campaign"
    assert data["code_version"]
    assert data["environment"]["python"]
    assert len(data["cells"]) == len(small_run.artifact.cells)
    assert data["points"]  # per-(benchmark, runtime, cores) aggregates


def test_unsupported_schema_rejected(small_run, tmp_path):
    data = small_run.artifact.to_json_dict()
    data["schema"] = ARTIFACT_SCHEMA + 1
    with pytest.raises(ValueError, match="unsupported artifact schema"):
        CampaignArtifact.from_json_dict(data)
    with pytest.raises(ValueError, match="not a campaign artifact"):
        CampaignArtifact.from_json_dict({"cells": []})


def test_truncated_artifact_names_the_missing_key(small_run):
    with pytest.raises(ValueError, match="artifact is missing required key 'spec'"):
        CampaignArtifact.from_json_dict({"kind": "repro-campaign", "schema": ARTIFACT_SCHEMA})
    data = small_run.artifact.to_json_dict()
    del data["cells"][0]["result"]
    with pytest.raises(ValueError, match="cell is missing required key 'result'"):
        CampaignArtifact.from_json_dict(data)


def test_curves_match_serial_harness(small_spec, small_run):
    """Artifact aggregation is the harness aggregation, number for number."""
    config = ExperimentConfig(
        platform=small_spec.platform,
        hpx=small_spec.hpx,
        std=small_spec.std,
        samples=small_spec.samples,
        core_counts=small_spec.core_counts,
        seed=small_spec.seed,
    )
    direct = run_strong_scaling("fib", "hpx", params={"n": 12}, config=config)
    from_artifact = small_run.artifact.curve("fib", "hpx")
    assert [p.cores for p in from_artifact.points] == [p.cores for p in direct.points]
    for mine, theirs in zip(from_artifact.points, direct.points):
        assert mine.median_exec_ns == theirs.median_exec_ns
        assert mine.exec_samples == theirs.exec_samples
        assert mine.counters == theirs.counters


def test_curve_lookup_error_lists_contents(small_run):
    with pytest.raises(KeyError, match="fib/hpx"):
        small_run.artifact.curve("strassen", "hpx")


def test_cells_persist_telemetry_rows(small_run):
    """Since schema 2, cells carry the full sample stream, not a totals dict."""
    data = small_run.artifact.to_json_dict()
    assert data["schema"] == ARTIFACT_SCHEMA
    cell = next(c for c in data["cells"] if not c["result"]["aborted"])
    assert "counters" not in cell["result"]
    rows = cell["result"]["telemetry"]
    assert rows and all(
        {"name", "instance", "timestamp_ns", "value", "unit", "run_id"} == set(row)
        for row in rows
    )


def test_run_result_round_trips_through_telemetry_rows(small_run):
    """Serialize -> deserialize preserves both frame and totals view."""
    cr = next(c for c in small_run.artifact.cells if not c.result["aborted"])
    restored = cr.run_result()
    assert restored.telemetry is not None
    assert restored.counters == restored.telemetry.totals()
    from repro.campaign.artifact import run_result_to_dict

    assert run_result_to_dict(restored) == dict(cr.result)


@pytest.mark.parametrize("schema", [1, 2])
def test_old_schemas_are_rejected(small_run, schema):
    """Only the current layout loads; the error names both schemas."""
    data = small_run.artifact.to_json_dict()
    data["schema"] = schema
    with pytest.raises(ValueError, match=rf"schema {schema}\b.*schema {ARTIFACT_SCHEMA}\b"):
        CampaignArtifact.from_json_dict(data)


def test_committed_artifacts_are_current():
    """Every campaign artifact committed under ``results/`` loads with
    this build, and its stored ``points`` are exactly what its cells
    aggregate to."""
    checked = 0
    for path in sorted(RESULTS.rglob("*.json")):
        if "cache" in path.relative_to(RESULTS).parts:
            continue  # local result-cache entries, not artifacts
        data = json.loads(path.read_text())
        if not isinstance(data, dict) or data.get("kind") != "repro-campaign":
            continue
        assert data["schema"] == ARTIFACT_SCHEMA, path
        artifact = CampaignArtifact.from_json_dict(data)
        assert data["points"] == artifact.points_json(), path
        checked += 1
    assert checked >= 3
