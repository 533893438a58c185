"""Section V-C — the cost of collecting the counters themselves.

Paper: "The overhead caused by collecting these counters is usually
very small (within variability noise), but sometimes are up to 10% with
very fine granularity tasks when run on one or two cores.  When PAPI
counters are queried this overhead can go up to 16%."
"""

from __future__ import annotations

from repro.api import RunSpec, Session
from repro.telemetry.pipeline import PAPI_COUNTERS, SOFTWARE_COUNTERS

from conftest import run_once


def _overhead(name: str, cores: int, specs) -> float:
    plain = Session().run(RunSpec(name, cores=cores, counters=()))
    counted = Session().run(RunSpec(name, cores=cores, counters=specs))
    return (counted.exec_time_ns - plain.exec_time_ns) / plain.exec_time_ns * 100


def test_counter_collection_overhead(benchmark):
    def measure():
        return {
            "fib sw 1c": _overhead("fib", 1, SOFTWARE_COUNTERS),
            "fib sw+papi 1c": _overhead("fib", 1, SOFTWARE_COUNTERS + PAPI_COUNTERS),
            "fib sw 2c": _overhead("fib", 2, SOFTWARE_COUNTERS),
            "alignment sw+papi 1c": _overhead(
                "alignment", 1, SOFTWARE_COUNTERS + PAPI_COUNTERS
            ),
        }

    overheads = run_once(benchmark, measure)
    print()
    for key, pct in overheads.items():
        print(f"  {key:22s} {pct:5.1f}%")

    # Very fine tasks: software counters cost real but bounded time.
    assert 1.0 < overheads["fib sw 1c"] <= 12.0
    # PAPI raises it (paper: up to 16%).
    assert overheads["fib sw+papi 1c"] > overheads["fib sw 1c"]
    assert overheads["fib sw+papi 1c"] <= 18.0
    # Coarse tasks: within noise.
    assert overheads["alignment sw+papi 1c"] < 1.0
