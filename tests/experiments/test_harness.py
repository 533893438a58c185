"""Strong-scaling harness: medians, labels, abort handling."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.harness import ScalingCurve, ScalingPoint, run_strong_scaling

SMALL_FIB = {"n": 12}


@pytest.fixture(scope="module")
def fib_curve():
    config = ExperimentConfig(samples=2, core_counts=(1, 2, 4))
    return run_strong_scaling("fib", "hpx", params=SMALL_FIB, config=config)


def test_points_cover_core_counts(fib_curve):
    assert [p.cores for p in fib_curve.points] == [1, 2, 4]


def test_median_of_samples(fib_curve):
    point = fib_curve.points[0]
    assert len(point.exec_samples) == 2
    lo, hi = sorted(point.exec_samples)
    assert lo <= point.median_exec_ns <= hi


def test_counters_aggregated(fib_curve):
    point = fib_curve.points[0]
    assert "/threads{locality#0/total}/time/average" in point.counters


def test_speedup(fib_curve):
    assert fib_curve.speedup(1) == pytest.approx(1.0)
    assert fib_curve.speedup(4) > 2.5


def test_point_lookup(fib_curve):
    assert fib_curve.point(2).cores == 2
    with pytest.raises(KeyError):
        fib_curve.point(16)


def test_scales_to_label(fib_curve):
    assert fib_curve.scales_to() == "to 4"


def test_scales_to_fail_label():
    config = ExperimentConfig(samples=1, core_counts=(1, 2))
    curve = run_strong_scaling("fib", "std", params={"n": 19}, config=config)
    assert any(p.aborted for p in curve.points)
    assert curve.scales_to() == "fail"
    assert curve.baseline_ns is None or curve.speedup(2) is None


def test_scales_to_no_scaling():
    curve = ScalingCurve(
        benchmark="x",
        runtime="hpx",
        points=[
            ScalingPoint(cores=1, aborted=False, median_exec_ns=100),
            ScalingPoint(cores=2, aborted=False, median_exec_ns=101),
            ScalingPoint(cores=4, aborted=False, median_exec_ns=99.5),
        ],
    )
    assert curve.scales_to() == "no scaling"


def test_std_curve_collects_counters_too():
    """Counters read the probe bus, so std curves carry them as well."""
    config = ExperimentConfig(samples=1, core_counts=(1,))
    curve = run_strong_scaling("fib", "std", params=SMALL_FIB, config=config)
    counters = curve.points[0].counters
    assert counters["/threads{locality#0/total}/count/cumulative"] > 0
    assert "/threads{locality#0/total}/time/average" in counters


def test_collect_counters_false():
    config = ExperimentConfig(samples=1, core_counts=(1,))
    curve = run_strong_scaling(
        "fib", "hpx", params=SMALL_FIB, config=config, collect_counters=False
    )
    assert curve.points[0].counters == {}


def test_runner_periodic_query_samples():
    from repro.api import Session, TelemetryConfig, WorkloadSpec
    from repro.simcore.clock import us

    result = Session(runtime="hpx", cores=2).run(
        WorkloadSpec.parse("fib"),
        params={"n": 13},
        telemetry=TelemetryConfig(interval_ns=us(100)),
    )
    assert result.verified
    # The periodic rows, then the final evaluation at the end of the run.
    *periodic, final = result.telemetry.series("/threads{locality#0/total}/count/cumulative")
    assert len(periodic) >= 2
    assert final.timestamp_ns == result.exec_time_ns
    counts = [s.value for s in periodic]
    assert counts == sorted(counts)  # cumulative counter grows


def test_runner_query_requires_counters():
    from repro.api import Session, TelemetryConfig, WorkloadSpec

    with pytest.raises(ValueError, match="periodic queries need counters"):
        Session(runtime="hpx").run(
            WorkloadSpec.parse("fib"),
            params={"n": 8},
            telemetry=TelemetryConfig(counters=(), interval_ns=1000),
        )
