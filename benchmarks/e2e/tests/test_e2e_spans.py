"""Span self-time arithmetic, calibration, and the wrap/restore round trip."""

from __future__ import annotations

import spans
import suite


class FakeClock:
    """Returns the given timestamps in order."""

    def __init__(self, *times: int) -> None:
        self.times = list(times)

    def __call__(self) -> int:
        return self.times.pop(0)


def _nested(tracer: spans.SpanTracer) -> None:
    inner = tracer.wrap("inner", lambda: None)

    def body() -> None:
        inner()
        inner()

    tracer.wrap("outer", body)()


def test_self_time_subtracts_children():
    # outer [0, 100] holds inner [10, 30] and inner [40, 45].
    tracer = spans.SpanTracer(clock=FakeClock(0, 10, 30, 40, 45, 100))
    _nested(tracer)
    assert tracer.spans["inner"].self_ns == 25
    assert tracer.spans["outer"].self_ns == 75
    assert tracer.calls("inner") == 2 and tracer.calls("outer") == 1
    assert tracer.covered_ns == 100


def test_wrapper_cost_is_charged_to_nobody():
    calibration = spans.Calibration(inner_ns=1.0, outer_ns=2.0)
    tracer = spans.SpanTracer(calibration, clock=FakeClock(0, 10, 30, 40, 45, 100))
    _nested(tracer)
    # Each span loses its inner cost; the parent also loses each child's outer cost.
    assert tracer.spans["inner"].self_ns == (20 - 1) + (5 - 1)
    assert tracer.spans["outer"].self_ns == 100 - (20 + 2) - (5 + 2) - 1
    assert tracer.covered_ns == 100 + 2
    # Self times + wrapper cost + unattributed time == wall time.
    wall = 110
    self_total = sum(s.self_ns for s in tracer.spans.values())
    overhead = tracer.total_calls * calibration.per_call_ns
    unattributed = wall - tracer.covered_ns
    assert self_total + overhead + unattributed == wall


def test_kept_durations_exclude_nested_wrapper_cost():
    calibration = spans.Calibration(inner_ns=1.0, outer_ns=2.0)
    tracer = spans.SpanTracer(calibration, clock=FakeClock(0, 10, 30, 100))
    inner = tracer.wrap("inner", lambda: None)
    tracer.wrap("cell", inner, keep_durations=True)()
    assert tracer.durations("cell") == [100 - 1 * 3.0 - 1.0]


def test_span_survives_an_exception_and_counts_results():
    tracer = spans.SpanTracer(clock=FakeClock(0, 5, 10, 12))

    def boom() -> None:
        raise ValueError("x")

    try:
        tracer.wrap("boom", boom)()
    except ValueError:
        pass
    assert tracer.calls("boom") == 1 and tracer.stack == [5]
    assert tracer.wrap("rows", lambda: [1, 2, 3], count=len)() == [1, 2, 3]
    assert tracer.count("rows") == 3


def test_calibration_is_positive():
    calibration = spans.calibrate(rounds=3, calls=2_000)
    assert calibration.inner_ns > 0
    assert calibration.outer_ns >= 0


def _owners(tracer: spans.SpanTracer) -> dict[int, object]:
    return {id(owner): owner for owner, _, _ in tracer._patches}


def test_install_then_restore_leaves_every_attribute_as_it_was():
    probe = spans.SpanTracer()
    spans.install_layers(probe)
    owners = _owners(probe)
    probe.restore()
    assert len(owners) > 10
    before = {key: dict(vars(owner)) for key, owner in owners.items()}

    tracer = spans.SpanTracer()
    spans.install_layers(tracer)
    try:
        assert any(dict(vars(owner)) != before[key] for key, owner in owners.items())
    finally:
        tracer.restore()
    assert {key: dict(vars(owner)) for key, owner in owners.items()} == before


def test_traced_runs_report_what_untraced_runs_report():
    from repro.api import Session
    from repro.workloads import WorkloadSpec

    spec = "fib:n=10"
    options = suite._profile_what_if()
    untraced = Session(runtime="hpx", cores=2).run(WorkloadSpec.parse(spec), **options)
    tracer = spans.SpanTracer(spans.calibrate(rounds=1, calls=1_000))
    spans.install_layers(tracer)
    try:
        traced = Session(runtime="hpx", cores=2).run(
            WorkloadSpec.parse(spec), **suite._profile_what_if()
        )
    finally:
        tracer.restore()
    assert suite.run_digest(spec, traced) == suite.run_digest(spec, untraced)
    assert tracer.calls("exec.interp") > 0
    assert tracer.calls("profiler.hook") > 0
    assert tracer.calls("api.run") == 2  # the run and its what-if replay
