"""Metric extractors and scaling analysis."""

import pytest

from repro.api import Session, TelemetryConfig, WorkloadSpec
from repro.campaign.engine import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.experiments import metrics
from repro.experiments.analysis import analyze, karp_flatt, knee, parallel_efficiency
from repro.experiments.harness import ScalingCurve, ScalingPoint

#: Runs without counter instrumentation.
NO_COUNTERS = TelemetryConfig(counters=())


@pytest.fixture(scope="module")
def fib_run():
    return Session(runtime="hpx", cores=2).run(WorkloadSpec.parse("fib"), params={"n": 13})


def test_task_duration_and_overhead(fib_run):
    duration = metrics.task_duration_us(fib_run)
    overhead = metrics.task_overhead_us(fib_run)
    assert 0.5 < duration < 5
    assert 0.3 < overhead < 2


def test_per_core_metrics(fib_run):
    task_time = metrics.task_time_per_core_ms(fib_run, 2)
    sched = metrics.scheduling_overhead_per_core_ms(fib_run, 2)
    assert task_time > 0 and sched > 0
    # exec time >= per-core task time (the Figs 8-12 relationship).
    assert fib_run.exec_time_ns / 1e6 >= task_time * 0.95


def test_overhead_fraction(fib_run):
    frac = metrics.overhead_fraction(fib_run)
    assert 0.2 < frac < 1.5  # very fine: overhead comparable to work


def test_idle_fraction(fib_run):
    assert 0.0 <= metrics.idle_fraction(fib_run) <= 1.0


def test_bandwidth(fib_run):
    assert metrics.bandwidth_gbs(fib_run) > 0


def test_metrics_validation(fib_run):
    bare = Session(runtime="std", cores=2).run(
        WorkloadSpec.parse("fib"), params={"n": 10}, telemetry=NO_COUNTERS
    )
    with pytest.raises(ValueError, match="counters"):
        metrics.task_duration_us(bare)
    with pytest.raises(ValueError, match="cores"):
        metrics.task_time_per_core_ms(fib_run, 0)


def make_curve(times: dict[int, float | None]) -> ScalingCurve:
    return ScalingCurve(
        benchmark="x",
        runtime="hpx",
        points=[
            ScalingPoint(cores=c, aborted=t is None, median_exec_ns=t or 0.0)
            for c, t in times.items()
        ],
    )


def test_parallel_efficiency():
    curve = make_curve({1: 100.0, 2: 55.0, 4: 30.0})
    assert parallel_efficiency(curve, 2) == pytest.approx(100 / 55 / 2)
    assert parallel_efficiency(curve, 4) == pytest.approx(100 / 30 / 4)


def test_karp_flatt_ideal_is_zero():
    curve = make_curve({1: 100.0, 2: 50.0, 4: 25.0})
    assert karp_flatt(curve, 4) == pytest.approx(0.0, abs=1e-9)


def test_karp_flatt_serial_fraction_recovered():
    # Amdahl with f=0.2: S(p) = 1 / (0.2 + 0.8/p)
    curve = make_curve({1: 100.0, 4: 100 * (0.2 + 0.8 / 4)})
    assert karp_flatt(curve, 4) == pytest.approx(0.2)


def test_karp_flatt_validation():
    curve = make_curve({1: 100.0, 2: 50.0})
    with pytest.raises(ValueError):
        karp_flatt(curve, 1)


def test_knee_detection():
    curve = make_curve({1: 100.0, 2: 50.0, 10: 12.0, 20: 12.1})
    assert knee(curve) == 10
    flat = make_curve({1: 100.0, 2: 99.0})
    assert knee(flat) == 1


def test_analyze_real_curve():
    spec = CampaignSpec(
        benchmarks=("fib",), runtimes=("hpx",), core_counts=(1, 2, 4), samples=1, params={"n": 12}
    )
    curve = run_campaign(spec).artifact.curve("fib", "hpx")
    analysis = analyze(curve)
    assert analysis.benchmark == "fib"
    assert analysis.max_speedup > 2
    assert analysis.max_speedup_cores == 4
    assert 0 < analysis.efficiency_at_max <= 1.1
    assert analysis.serial_fraction is not None
    assert analysis.knee_cores == 4


def test_analyze_all_aborted():
    curve = make_curve({1: None, 2: None})
    analysis = analyze(curve)
    assert analysis.max_speedup == 0.0
    assert analysis.knee_cores is None
