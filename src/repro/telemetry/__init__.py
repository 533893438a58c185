"""Streaming telemetry: one sample/record spine for all measurement.

The paper's contribution *is* the intrinsic monitoring path — counters
sampled in-band on an interval, exported, and turned into the Section
V-C efficiency metrics.  This package is that path's single
implementation: a :class:`Sample` record model, a
:class:`TelemetryPipeline` owning counter-set resolution (wildcards,
nested statistics), sampling, bounded buffering with drop accounting,
and pluggable sinks (CSV, JSON-lines, Chrome-trace, in-memory frames).

Every sampler — the end-of-run evaluation, periodic in-band queries,
the APEX policy engine — records through a pipeline, and every stream
consumer — campaign artifacts, the run server, the ``repro counters``
CLI — reads and writes this one stream format instead of private row
shapes.  See ``docs/telemetry.md``.
"""

from repro.telemetry.frame import TelemetryFrame
from repro.telemetry.pipeline import DEFAULT_BUFFER_LIMIT, TelemetryConfig, TelemetryPipeline
from repro.telemetry.sample import SAMPLE_FIELDS, Sample
from repro.telemetry.sinks import (
    ChromeTraceSink,
    CsvSink,
    JsonLinesSink,
    TelemetrySink,
    ensure_sink,
    parse_jsonl_stream,
    replay_samples,
)

__all__ = [
    "ChromeTraceSink",
    "CsvSink",
    "DEFAULT_BUFFER_LIMIT",
    "JsonLinesSink",
    "SAMPLE_FIELDS",
    "Sample",
    "TelemetryConfig",
    "TelemetryFrame",
    "TelemetryPipeline",
    "TelemetrySink",
    "ensure_sink",
    "parse_jsonl_stream",
    "replay_samples",
]
