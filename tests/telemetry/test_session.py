"""Session + telemetry integration: config plumbing, sinks, acceptance."""

import io

import pytest

from repro.api import RunResult, Session, WorkloadSpec, TelemetryConfig
from repro.platform.presets import platform_names
from repro.simcore.clock import ms
from repro.telemetry.frame import TelemetryFrame
from repro.telemetry.sinks import JsonLinesSink, parse_jsonl_stream


def test_run_result_carries_frame_and_totals():
    result = Session(runtime="hpx", cores=2).run(WorkloadSpec.parse("fib"), params={"n": 10})
    assert result.telemetry is not None
    assert len(result.telemetry) > 0
    # The legacy dict is the frame's final-totals view, bit for bit.
    assert result.counters == result.telemetry.totals()


def test_full_buffer_keeps_the_final_evaluation():
    """Periodic samples overflow a small buffer; the final evaluation
    still ends the frame, on the result and through its JSON form."""
    spec = Session(runtime="hpx", cores=1).spec(
        WorkloadSpec.parse("fib:n=14"),
        telemetry=TelemetryConfig(interval_ns=50_000, buffer_limit=20),
    )
    result = Session().run(spec)
    name = "/threads{locality#0/total}/count/cumulative"
    assert result.counters[name] == 1269
    assert len(result.telemetry) <= 20
    assert result.telemetry.totals() == result.counters
    restored = RunResult.from_json(result.to_json(), spec)
    assert restored.counters == result.counters


def test_collect_counters_false_means_no_frame():
    result = Session(runtime="hpx", cores=2).run(
        WorkloadSpec.parse("fib"), params={"n": 10}, telemetry=TelemetryConfig(counters=())
    )
    assert result.telemetry is None
    assert result.counters == {}


def test_interval_sampling_streams_to_sinks():
    buf = io.StringIO()
    session = Session(runtime="hpx", cores=4)
    result = session.run(
        WorkloadSpec.parse("fib"),
        params={"n": 16},
        telemetry=TelemetryConfig(
            counters=("/threads/count/cumulative",),
            interval_ns=ms(0.01),
            sinks=(JsonLinesSink(buf),),
        ),
    )
    frame = parse_jsonl_stream(buf.getvalue())
    # Periodic samples plus the final end-of-run evaluation.
    assert len(frame) == len(result.telemetry) > 1
    assert frame.samples == result.telemetry.samples
    # The cadence driver's rows come before the final evaluation.
    assert result.telemetry.timestamps()[-1] == result.exec_time_ns
    assert len(result.telemetry.timestamps()) > 1


def test_default_run_id_identifies_the_run():
    result = Session(runtime="std", cores=2).run(WorkloadSpec.parse("fib"), params={"n": 10})
    assert result.telemetry.samples[0].run_id == "fib/std/c2"


def test_query_interval_requires_counters():
    with pytest.raises(ValueError, match="periodic queries need counters"):
        Session(runtime="hpx").run(
            WorkloadSpec.parse("fib"),
            params={"n": 8},
            telemetry=TelemetryConfig(counters=(), interval_ns=ms(1)),
        )


@pytest.mark.parametrize("platform", platform_names())
def test_wildcard_query_acceptance_on_every_preset(platform):
    """ISSUE acceptance: the worker-thread#* spec expands and samples on
    every preset platform without error."""
    session = Session(runtime="hpx", cores=2, platform=platform)
    result = session.run(
        WorkloadSpec.parse("fib"),
        params={"n": 10},
        telemetry=TelemetryConfig(
            counters=("/threads{locality#0/worker-thread#*}/time/average",)
        ),
    )
    assert not result.aborted
    assert result.telemetry.names() == [
        "/threads{locality#0/worker-thread#0}/time/average",
        "/threads{locality#0/worker-thread#1}/time/average",
    ]


def test_abort_still_flushes_telemetry():
    """An aborted run keeps the samples collected up to the abort."""
    sink = TelemetryFrame()
    result = Session(runtime="std", cores=4).run(
        WorkloadSpec.parse("fib"),
        params={"n": 19},
        telemetry=TelemetryConfig(counters=("/runtime/uptime",), sinks=(sink,)),
    )
    assert result.aborted
    assert result.telemetry is not None
