"""Regenerate the golden event-stream fixtures.

Usage::

    PYTHONPATH=src python tests/fixtures/generate_golden.py

Each fixture captures one reference run's complete event transcript
(every scheduled delay, grouped by the dispatching event) plus its
final observable results (simulated time, event count, counter values).
``tests/test_golden_streams.py`` re-runs the same workloads and asserts
bit-identical transcripts, so any semantic change to the schedulers,
the effect interpreter, or the event core is caught in tier-1.

Only regenerate after an *intentional* semantic change, and say so in
the commit message.
"""

from __future__ import annotations

from pathlib import Path

from repro.api import Session, TelemetryConfig, WorkloadSpec
from repro.simcore.record import RecordingEngine, save_stream

FIXTURES = Path(__file__).resolve().parent

#: name -> (benchmark, runtime, cores, params, collect_counters)
GOLDEN_RUNS = {
    "fib_hpx": ("fib", "hpx", 4, {"n": 16}, True),
    "uts_hpx": ("uts", "hpx", 4, {"b0": 60, "m": 4, "q": 0.24, "max_depth": 12}, True),
    "health_hpx": ("health", "hpx", 4, {"levels": 5, "branching": 3, "steps": 6}, True),
    "fib_std": ("fib", "std", 4, {"n": 12}, False),
    "health_std": ("health", "std", 4, {"levels": 4, "branching": 3, "steps": 4}, False),
}


def record_run(name: str) -> tuple[RecordingEngine, dict]:
    """Run one golden workload on a recording engine; returns
    (recorder, metadata) where metadata holds the observable results."""
    benchmark, runtime, cores, params, collect = GOLDEN_RUNS[name]
    recorder = RecordingEngine()
    session = Session(runtime=runtime, cores=cores, engine_factory=lambda: recorder)
    result = session.run(
        WorkloadSpec.parse(benchmark),
        params=params,
        telemetry=TelemetryConfig(counters=None if collect else ()),
    )
    meta = {
        "name": name,
        "benchmark": benchmark,
        "runtime": runtime,
        "cores": cores,
        "params": params,
        "collect_counters": collect,
        "exec_time_ns": result.exec_time_ns,
        "engine_events": result.engine_events,
        "tasks_created": result.tasks_created,
        "tasks_executed": result.tasks_executed,
        "peak_live_tasks": result.peak_live_tasks,
        "verified": result.verified,
        "counters": result.counters,
    }
    return recorder, meta


def main() -> None:
    for name in GOLDEN_RUNS:
        recorder, meta = record_run(name)
        path = FIXTURES / f"{name}.stream.json.gz"
        save_stream(path, groups=recorder.groups, delays=recorder.delays, meta=meta)
        size_kb = path.stat().st_size / 1024
        print(
            f"{name}: {meta['engine_events']} events, "
            f"exec={meta['exec_time_ns']} ns -> {path.name} ({size_kb:.0f} KiB)"
        )


if __name__ == "__main__":
    main()
