"""Percentiles, the compare classification, digests and the output checks."""

from __future__ import annotations

import json

import pytest
import run
import spans
import suite


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile(list(range(20)))[0] == 50.0
    assert run.tail_percentile(list(range(99)))[0] == 50.0
    assert run.tail_percentile(list(range(100))) == (90.0, 89)
    assert run.tail_percentile(list(range(150))) == (90.0, 134)
    assert run.tail_percentile(list(range(1000)))[0] == 99.0


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 90) == 5.0
    assert run.percentile(values, 1) == 1.0


def _summary(*values: float) -> dict:
    return run.summarize(list(values))


@pytest.mark.parametrize(
    ("better", "base", "new", "status"),
    [
        ("lower", (1.0, 1.01, 0.99), (1.05, 1.06, 1.04), "ok"),
        ("lower", (1.0, 1.01, 0.99), (1.2, 1.21, 1.19), "regressed"),
        ("higher", (100.0, 101.0, 99.0), (80.0, 81.0, 79.0), "regressed"),
        ("higher", (100.0, 101.0, 99.0), (120.0, 121.0, 119.0), "ok"),
        # Spread wider than the bound: unresolved unless every new run wins.
        ("lower", (1.0, 1.5, 0.7), (1.3, 1.8, 0.9), "unresolved"),
        ("lower", (2.0, 2.5, 1.8), (1.0, 1.4, 0.8), "ok"),
    ],
)
def test_classify(better, base, new, status):
    assert run.classify(better, 0.1, _summary(*base), _summary(*new))[0] == status


def _result_file(path, wall, failed=0):
    metrics = {
        m["name"]: {"unit": m["unit"], **run.summarize([1.0, 1.0, 1.0])}
        for m in run.load_definition()["end_to_end"]
    }
    metrics["wall_s"] = {"unit": "s", **run.summarize(list(wall))}
    workload = {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "failed_frac": failed / 10,
        "metrics": metrics,
        "digests": {"fib/hpx/8": "abc"},
    }
    data = {"env": {"seed": 1}, "workloads": {"fine-exact": workload}}
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_compare_exit_status(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json", (1.0, 1.01, 0.99))
    same = _result_file(tmp_path / "b.json", (1.02, 1.03, 1.01))
    slow = _result_file(tmp_path / "c.json", (1.5, 1.51, 1.49))
    broken = _result_file(tmp_path / "d.json", (1.0, 1.01, 0.99), failed=1)
    assert run.compare_main(base, same) == 0
    assert run.compare_main(base, slow) == 1
    assert "regressed" in capsys.readouterr().out
    assert run.compare_main(base, broken) == 1
    assert run.compare_main(base, str(tmp_path / "missing.json")) == 2


def test_check_outputs_counts_every_kind_of_failure():
    committed = {"digests": {"a": "1", "b": "2", "c": "3"}, "aborts": ["c"]}
    good = [["a", "1", False, True], ["b", "2", False, True], ["c", "3", True, False]]
    assert run.check_outputs([good, good], committed, default_seed=True) == (6, 0, [])
    bad = [
        ["a", "9", False, True],  # digest mismatch
        ["b", "2", False, False],  # unverified
        ["c", "3", False, True],  # expected abort did not happen
    ]
    attempted, failed, problems = run.check_outputs([good, bad], committed, default_seed=True)
    assert (attempted, failed) == (6, 3)
    assert any("did not abort" in p for p in problems)
    # Another seed: digests are checked against the first pass, not the
    # committed values, and a missing run fails.
    other = [["a", "7", False, True], ["c", "8", True, False]]
    attempted, failed, problems = run.check_outputs([other, other], committed, default_seed=False)
    assert (attempted, failed) == (6, 2)
    assert all(p.endswith("b: missing") for p in problems)


def test_run_digest_is_stable_across_runs():
    from repro.api import Session
    from repro.workloads import WorkloadSpec

    def digest(spec: str) -> str:
        result = Session(runtime="hpx", cores=4).run(WorkloadSpec.parse(spec))
        return suite.run_digest(spec, result)

    assert digest("fib:n=10") == digest("fib:n=10")
    assert digest("fib:n=10") != digest("fib:n=11")


def test_layer_metrics_match_the_per_layer_list():
    record = suite.Record("fib/hpx/8", "d", events=10, tasks=2)
    p = suite.Pass(wall_s=1.0, cpu_s=1.0, records=[record], run_wall_s=1.0)
    metrics, problems = run.layer_metrics(
        [p], [p], [spans.SpanTracer()], spans.Calibration(0.0, 0.0), [], None
    )
    assert set(metrics) == {m["name"] for m in run.load_definition()["per_layer"]}
    assert metrics["simcore.events.events_per_task"] == 5.0
    assert metrics["trace.unattributed_frac"] == 1.0
    assert problems == []


def test_labels_are_unique_and_committed():
    committed = run.load_digests()
    for name, workload in suite.WORKLOADS.items():
        if isinstance(workload, suite.SessionWorkload):
            labels = [r.label for r in workload.runs]
            assert len(labels) == len(set(labels)), name
            assert set(labels) == set(committed["workloads"][name]["digests"]), name
