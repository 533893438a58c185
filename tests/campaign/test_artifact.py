"""Artifact format: roundtrip, aggregation, schema checks."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import RunResult
from repro.campaign.artifact import ARTIFACT_SCHEMA, CampaignArtifact

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


def test_curves_survive_a_json_round_trip(small_run):
    """An artifact read back from its JSON aggregates to the same curves."""
    artifact = small_run.artifact
    reloaded = CampaignArtifact.from_json_dict(json.loads(artifact.to_json()))
    assert reloaded.curves().keys() == artifact.curves().keys()
    for key, curve in artifact.curves().items():
        theirs = reloaded.curves()[key]
        assert [p.cores for p in theirs.points] == [p.cores for p in curve.points]
        for mine, back in zip(curve.points, theirs.points):
            assert back.median_exec_ns == mine.median_exec_ns
            assert back.exec_samples == mine.exec_samples
            assert back.counters == mine.counters


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
    restored = RunResult.from_json(cr.result, small_run.artifact.spec.run_spec(cr.cell))
    assert restored.telemetry is not None
    assert restored.counters == restored.telemetry.totals()
    assert restored.to_json() == dict(cr.result)


@pytest.mark.parametrize("schema", [1, 2, 3])
def test_old_schemas_are_rejected(small_run, schema):
    """Only the current layout loads; the error names both schemas."""
    data = small_run.artifact.to_json_dict()
    data["schema"] = schema
    with pytest.raises(ValueError, match=rf"schema {schema}\b.*schema {ARTIFACT_SCHEMA}\b"):
        CampaignArtifact.from_json_dict(data)


def test_committed_artifacts_are_current():
    """Every campaign artifact committed under ``results/`` loads with
    this build, its stored ``points`` are exactly what its cells
    aggregate to, and saving it again writes the same file."""
    checked = 0
    for path in sorted(RESULTS.rglob("*.json")):
        if "cache" in path.relative_to(RESULTS).parts:
            continue  # local result-cache entries, not artifacts
        text = path.read_text()
        data = json.loads(text)
        if not isinstance(data, dict) or data.get("kind") != "repro-campaign":
            continue
        assert data["schema"] == ARTIFACT_SCHEMA, path
        artifact = CampaignArtifact.from_json_dict(data)
        assert data["points"] == artifact.points_json(), path
        assert artifact.to_json() + "\n" == text, path
        checked += 1
    assert checked >= 3
