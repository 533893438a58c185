"""Pluggable telemetry sinks.

A sink is anything with ``emit(sample)`` and ``close()``.  Built-ins:

- :class:`CsvSink` — the HPX ``--hpx:print-counter``-style tabular
  export, one header plus one row per sample;
- :class:`JsonLinesSink` — one JSON object per line (the schema is
  documented in ``docs/telemetry.md``); machine-friendly streaming;
- :class:`TelemetryFrame` (from :mod:`repro.telemetry.frame`) — the
  in-memory sink tests and aggregation use;
- :class:`ChromeTraceSink` — folds counter samples into the Chrome
  Trace Event Format alongside (optionally) a recorded task trace, via
  :func:`repro.trace.export.to_chrome_trace`.

File-path destinations are owned (opened and closed) by the sink;
already-open streams are borrowed and only flushed on ``close``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, IO, Protocol, runtime_checkable

from repro.telemetry.frame import TelemetryFrame
from repro.telemetry.sample import SAMPLE_FIELDS, Sample


@runtime_checkable
class TelemetrySink(Protocol):
    """Structural sink interface the pipeline fans samples out to."""

    def emit(self, sample: Sample) -> None: ...

    def close(self) -> None: ...


def ensure_sink(sink: Any) -> Any:
    """Validate *sink* implements the sink interface.

    Raises a clear ``TypeError`` at configuration time instead of an
    ``AttributeError`` at first sample.
    """
    for attr in ("emit", "close"):
        if not callable(getattr(sink, attr, None)):
            raise TypeError(
                f"telemetry sink {sink!r} does not implement {attr}(); "
                "a sink needs emit(sample) and close()"
            )
    return sink


class _StreamSink:
    """Shared stream handling: path = owned file, stream = borrowed."""

    def __init__(self, dest: str | Path | IO[str]) -> None:
        if isinstance(dest, (str, Path)):
            self._stream: IO[str] = open(dest, "w", encoding="utf-8")
            self._owned = True
        else:
            self._stream = dest
            self._owned = False

    def _write_line(self, line: str) -> None:
        self._stream.write(line + "\n")

    def close(self) -> None:
        if self._owned:
            self._stream.close()
        else:
            self._stream.flush()


class CsvSink(_StreamSink):
    """``name,instance,timestamp_ns,value,unit,run_id`` rows.

    The header goes out with the first row (or at ``close()`` for a
    stream with no rows), so a run that fails before sampling writes
    nothing.
    """

    def __init__(self, dest: str | Path | IO[str]) -> None:
        super().__init__(dest)
        self._header_written = False

    def _write_header(self) -> None:
        if not self._header_written:
            self._header_written = True
            self._write_line(",".join(SAMPLE_FIELDS))

    def emit(self, sample: Sample) -> None:
        self._write_header()
        self._write_line(
            f"{sample.name},{sample.instance},{sample.timestamp_ns},"
            f"{sample.value:g},{sample.unit},{sample.run_id}"
        )

    def close(self) -> None:
        self._write_header()
        super().close()


class JsonLinesSink(_StreamSink):
    """One compact JSON object per sample (keys = ``SAMPLE_FIELDS``).

    ``value`` is serialized with full float precision (``repr``-exact),
    so a stream parsed back yields bit-identical counter values.
    """

    def emit(self, sample: Sample) -> None:
        self._write_line(json.dumps(sample.to_row(), sort_keys=True, separators=(",", ":")))


class ChromeTraceSink:
    """Collects samples and renders them as Chrome-trace counter events.

    ``render()`` produces a ``chrome://tracing`` / Perfetto JSON
    document; pass a :class:`~repro.profiler.events.TraceRecorder` (or
    its events) to overlay the counter timelines on the per-worker task
    timelines of the same run.  With a path destination the document is
    written on ``close``.
    """

    def __init__(self, dest: str | Path | None = None) -> None:
        self.frame = TelemetryFrame()
        self._dest = Path(dest) if dest is not None else None

    def emit(self, sample: Sample) -> None:
        self.frame.emit(sample)

    def render(self, trace: Any = None) -> str:
        from repro.trace.export import to_chrome_trace

        return to_chrome_trace(trace, telemetry=self.frame)

    def close(self) -> None:
        if self._dest is not None:
            self._dest.write_text(self.render(), encoding="utf-8")


def replay_samples(samples: Any, sink: Any) -> None:
    """Re-emit an iterable of samples (e.g. a stored
    :class:`TelemetryFrame`) into *sink*.

    The run server streams persisted telemetry rows to clients with
    this: frame -> :class:`JsonLinesSink` over the HTTP chunk writer.
    The sink is *not* closed — the caller owns its lifecycle.
    """
    for sample in samples:
        sink.emit(sample)


def parse_jsonl_stream(lines: Any) -> TelemetryFrame:
    """Parse a JSONL telemetry stream (iterable of lines or a whole
    string) back into a :class:`TelemetryFrame`; blank lines skipped."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    return TelemetryFrame.from_rows(json.loads(line) for line in lines if line.strip())
