"""The /profiler{...} counters through the Session counter path."""

import pytest

from repro.api import Session, TelemetryConfig
from repro.workloads import WorkloadSpec

SPECS = (
    "/profiler{locality#0/total}/work-ns",
    "/profiler{locality#0/total}/critical-path-ns",
    "/profiler{locality#0/total}/work-span-ratio",
    "/profiler{locality#0/total}/logical-parallelism",
)


def _run(spec="fib:n=12", counters=SPECS, interval_ns=None):
    session = Session(runtime="hpx", cores=4)
    return session.run(
        WorkloadSpec.parse(spec),
        telemetry=TelemetryConfig(counters=counters, interval_ns=interval_ns),
    )


def test_requesting_profiler_counters_implies_profiling():
    result = _run()
    assert result.profile is not None  # auto-enabled, no profile= needed
    assert set(SPECS) <= set(result.counters)


def test_final_values_match_the_profile():
    result = _run()
    profile = result.profile
    assert result.counters["/profiler{locality#0/total}/work-ns"] == profile.work_ns
    assert (
        result.counters["/profiler{locality#0/total}/critical-path-ns"] == profile.span_ns
    )
    assert result.counters["/profiler{locality#0/total}/work-span-ratio"] == pytest.approx(
        profile.average_parallelism
    )
    # Sampled after the run finished: nothing is busy any more.
    assert result.counters["/profiler{locality#0/total}/logical-parallelism"] == 0


def test_per_body_parameters_address_one_body():
    result = _run(
        counters=(
            "/profiler{locality#0/total}/work-ns@_fib_task",
            "/profiler{locality#0/total}/critical-path-ns@_fib_task",
        )
    )
    profile = result.profile
    fib_row = next(p for p in profile.flat if p.name == "_fib_task")
    assert (
        result.counters["/profiler{locality#0/total}/work-ns@_fib_task"] == fib_row.busy_ns
    )
    assert result.counters[
        "/profiler{locality#0/total}/critical-path-ns@_fib_task"
    ] == dict(profile.critical_body_ns).get("_fib_task", 0)


def test_unknown_body_parameter_reads_zero():
    result = _run(counters=("/profiler{locality#0/total}/work-ns@no_such_body",))
    assert result.counters["/profiler{locality#0/total}/work-ns@no_such_body"] == 0


def test_profiler_counters_ride_periodic_queries():
    result = _run(interval_ns=100_000)
    # Periodic rows before the final evaluation at the end of the run.
    *periodic, final = result.telemetry.series("/profiler{locality#0/total}/work-ns")
    assert periodic
    assert final.timestamp_ns == result.exec_time_ns
    work = [s.value for s in periodic]
    assert work == sorted(work)  # monotonic while the run progresses


def test_counters_absent_without_profiler():
    # No profile requested and no /profiler spec: provider stays dormant.
    session = Session(runtime="hpx", cores=4)
    result = session.run(WorkloadSpec.parse("fib:n=10"))
    assert result.profile is None
    assert not any(name.startswith("/profiler") for name in result.counters)


def test_non_total_instance_is_rejected():
    with pytest.raises(ValueError, match="only exist on the total instance"):
        _run(counters=("/profiler{locality#0/worker-thread#0}/work-ns",))


def test_provider_chain_lists_builtin_profiler():
    from repro.counters.providers import provider_identity

    assert "builtin.profiler" in provider_identity()
