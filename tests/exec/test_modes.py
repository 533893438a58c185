"""Execution-mode selection: spelling, resolution, eligibility."""

import pytest

from repro.api import Session, TelemetryConfig
from repro.exec.modes import (
    EXECUTION_MODES,
    CohortIneligibleError,
    ExecutionMode,
    resolve_mode,
)
from repro.workloads import WorkloadSpec

#: Runs without counter instrumentation.
NO_COUNTERS = TelemetryConfig(counters=())


# -- resolve_mode ------------------------------------------------------------


def test_none_resolves_to_exact_default():
    assert resolve_mode(None) is ExecutionMode.EXACT


@pytest.mark.parametrize("mode", ExecutionMode)
def test_spellings_round_trip(mode):
    assert resolve_mode(mode.value) is mode
    assert resolve_mode(mode) is mode
    assert mode.value in EXECUTION_MODES


@pytest.mark.parametrize("bad", ["fast", "EXACT", "", 7])
def test_unknown_spellings_are_rejected(bad):
    with pytest.raises(ValueError, match="exact, cohort"):
        resolve_mode(bad)


# -- mode as a workload parameter -------------------------------------------


def test_mode_param_is_validated_at_merge_time():
    from repro.inncabs.suite import get_benchmark

    bench = get_benchmark("fib")
    merged = bench.params_with_defaults({"mode": "cohort"})
    assert merged["mode"] == "cohort"
    with pytest.raises(ValueError, match="execution mode"):
        bench.params_with_defaults({"mode": "warp"})


def test_mode_param_selects_the_engine():
    session = Session(runtime="hpx", cores=2)
    result = session.run(WorkloadSpec.parse("fib:n=8,mode=cohort"), telemetry=NO_COUNTERS)
    assert result.mode == "cohort"
    assert result.verified


def test_mode_keyword_wins_over_param():
    session = Session(runtime="hpx", cores=2)
    result = session.run(
        WorkloadSpec.parse("fib:n=8,mode=cohort"),
        mode="exact",
        telemetry=NO_COUNTERS,
    )
    assert result.mode == "exact"


def test_default_runs_are_exact():
    session = Session(runtime="hpx", cores=2)
    result = session.run(WorkloadSpec.parse("fib:n=8"), telemetry=NO_COUNTERS)
    assert result.mode == "exact"


# -- eligibility -------------------------------------------------------------


def test_ineligible_workload_raises_before_simulation():
    session = Session(runtime="hpx", cores=2)
    with pytest.raises(CohortIneligibleError, match="no cohort plan"):
        session.run(WorkloadSpec.parse("sort:n=256,cutoff=64"), mode="cohort")


def test_taskbench_nontrivial_shapes_are_ineligible():
    session = Session(runtime="hpx", cores=2)
    with pytest.raises(CohortIneligibleError, match="taskbench"):
        session.run(
            WorkloadSpec.parse("taskbench:shape=fft,width=8,steps=4"), mode="cohort"
        )


def test_taskbench_trivial_shape_is_eligible():
    session = Session(runtime="hpx", cores=2)
    result = session.run(
        WorkloadSpec.parse("taskbench:shape=trivial,width=8,steps=4"),
        mode="cohort",
        telemetry=NO_COUNTERS,
    )
    assert result.mode == "cohort"
    assert result.verified
    assert result.tasks_executed == 8 * 4 + 1  # nodes + driver
