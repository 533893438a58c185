"""TelemetryPipeline: resolution, sampling, buffering, sink fan-out."""

import pytest

from repro.telemetry.frame import TelemetryFrame
from repro.telemetry.pipeline import DEFAULT_BUFFER_LIMIT, TelemetryConfig, TelemetryPipeline
from repro.telemetry.sinks import JsonLinesSink, parse_jsonl_stream

from tests.conftest import fib_body


def test_pipeline_resolves_counter_set(registry):
    pipe = TelemetryPipeline(registry, ["/threads/time/average", "/runtime/uptime"])
    assert len(pipe) == 2
    assert pipe.names() == [
        "/threads{locality#0/total}/time/average",
        "/runtime{locality#0/total}/uptime",
    ]


def test_pipeline_expands_wildcards(registry):
    pipe = TelemetryPipeline(registry, ["/threads{locality#0/worker-thread#*}/count/cumulative"])
    assert len(pipe) == 4  # hpx4: one per worker
    assert pipe.names()[0] == "/threads{locality#0/worker-thread#0}/count/cumulative"


def test_sample_values_match_direct_evaluation(registry, hpx4):
    """The bit-identity contract: sampling through the pipeline returns
    exactly what evaluating each counter directly returns."""
    specs = ["/threads/count/cumulative", "/threads/time/average"]
    pipe = TelemetryPipeline(registry, specs)
    direct = registry.create_counters(specs)
    hpx4.run_to_completion(fib_body, 10)
    expected = [counter.get_counter_value() for counter in direct]
    got = pipe.sample()
    assert [(v.name, v.value, v.time) for v in got] == [
        (v.name, v.value, v.time) for v in expected
    ]
    assert pipe.frame.totals() == {str(v.name): v.value for v in expected}


def test_samples_carry_metadata(registry, hpx4, engine):
    pipe = TelemetryPipeline(registry, ["/threads/time/average"], run_id="test/r1")
    hpx4.run_to_completion(fib_body, 8)
    pipe.sample()
    (sample,) = pipe.frame.samples
    assert sample.run_id == "test/r1"
    assert sample.instance == "locality#0/total"
    assert sample.unit == "ns"
    assert sample.timestamp_ns == engine.now


def test_buffer_limit_drops_are_accounted(registry):
    sink = TelemetryFrame()
    pipe = TelemetryPipeline(registry, ["/runtime/uptime"], buffer_limit=3, sinks=(sink,))
    for _ in range(5):
        pipe.sample()
    assert len(pipe.frame) == 3  # bounded retention
    assert pipe.dropped == 2  # ... with drop accounting
    assert pipe.samples_recorded == 5
    assert len(sink) == 5  # streaming sinks still see everything


def test_full_buffer_keeps_the_newest_evaluation(registry, hpx4):
    pipe = TelemetryPipeline(
        registry, ["/runtime/uptime", "/threads/count/cumulative"], buffer_limit=5
    )
    evaluations = []
    for n in range(2, 6):
        hpx4.run_to_completion(fib_body, n)
        evaluations.append([v.value for v in pipe.sample()])
    # The first evaluation, one sample of the second, then the newest
    # evaluation in place of the third.
    assert len(pipe.frame) == 5
    assert evaluations[-1] != evaluations[-2]
    assert pipe.frame.totals() == dict(zip(pipe.names(), evaluations[-1]))
    assert pipe.dropped == 3
    assert pipe.samples_recorded == 8


def test_evaluation_larger_than_the_buffer_is_kept_whole(registry):
    pipe = TelemetryPipeline(
        registry, ["/runtime/uptime", "/threads/count/cumulative"], buffer_limit=1
    )
    pipe.sample()
    pipe.sample()
    assert len(pipe.frame) == 2
    assert pipe.dropped == 2


def test_sink_fan_out(registry):
    a, b = TelemetryFrame(), TelemetryFrame()
    pipe = TelemetryPipeline(registry, ["/runtime/uptime"], sinks=(a, b))
    pipe.sample()
    assert len(a) == len(b) == 1


def test_record_rejects_wrong_arity(registry):
    pipe = TelemetryPipeline(registry, ["/runtime/uptime", "/threads/time/average"])
    with pytest.raises(ValueError, match="2 counter values"):
        pipe.record([])


def test_invalid_sink_rejected_at_construction(registry):
    with pytest.raises(TypeError, match="emit"):
        TelemetryPipeline(registry, ["/runtime/uptime"], sinks=(object(),))


def test_context_manager_starts_and_closes(registry, hpx4, tmp_path):
    path = tmp_path / "out.jsonl"
    sinks = (JsonLinesSink(path),)
    with TelemetryPipeline(registry, ["/threads/time/average"], sinks=sinks) as pipe:
        assert hpx4.instrument_ns > 0  # instrumentation active
        hpx4.run_to_completion(fib_body, 8)
        pipe.sample()
    assert hpx4.instrument_ns == 0
    assert len(parse_jsonl_stream(path.read_text())) == 1


def test_reset_rebaselines(registry, hpx4):
    pipe = TelemetryPipeline(registry, ["/threads/count/cumulative"])
    hpx4.run_to_completion(fib_body, 8)
    pipe.reset()
    assert pipe.sample()[0].value == 0.0


def test_config_validation():
    with pytest.raises(ValueError, match="interval_ns"):
        TelemetryConfig(interval_ns=0)
    with pytest.raises(ValueError, match="buffer_limit"):
        TelemetryConfig(buffer_limit=0)
    with pytest.raises(TypeError, match="emit"):
        TelemetryConfig(sinks=(42,))
    cfg = TelemetryConfig(counters=["/runtime/uptime"])
    assert cfg.counters == ("/runtime/uptime",)
    assert cfg.buffer_limit == DEFAULT_BUFFER_LIMIT


def test_buffer_limit_validation(registry):
    with pytest.raises(ValueError, match="buffer_limit"):
        TelemetryPipeline(registry, ["/runtime/uptime"], buffer_limit=0)
