"""Strong-scaling curves: medians, labels, abort handling."""

import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.experiments.harness import ScalingCurve, ScalingPoint

SMALL_FIB = {"n": 12}


def fib_scaling(runtime, params, core_counts, samples=1, **fields) -> ScalingCurve:
    """The strong-scaling curve of one fib campaign on *runtime*."""
    spec = CampaignSpec(
        benchmarks=("fib",),
        runtimes=(runtime,),
        core_counts=core_counts,
        samples=samples,
        params=params,
        **fields,
    )
    return run_campaign(spec).artifact.curve("fib", runtime)


@pytest.fixture(scope="module")
def fib_curve():
    return fib_scaling("hpx", SMALL_FIB, (1, 2, 4), samples=2)


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
    curve = fib_scaling("std", {"n": 19}, (1, 2))
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
    curve = fib_scaling("std", SMALL_FIB, (1,))
    counters = curve.points[0].counters
    assert counters["/threads{locality#0/total}/count/cumulative"] > 0
    assert "/threads{locality#0/total}/time/average" in counters


def test_collect_counters_false():
    curve = fib_scaling("hpx", SMALL_FIB, (1,), counters=())
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
