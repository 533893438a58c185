"""Task Bench lowered onto both runtimes: verification and counter parity."""

from __future__ import annotations

import pytest

from repro.api import Session, TelemetryConfig
from repro.taskbench import TaskBenchBenchmark, build_graph, graph_checksum
from repro.workloads import WorkloadSpec

SPEC = WorkloadSpec.parse("taskbench:shape=stencil_1d,width=8,steps=4,grain_ns=2000")

COUNTERS = (
    "/threads{locality#0/total}/count/cumulative",
    "/threads{locality#0/total}/count/created",
    "/taskbench{locality#0/total}/efficiency",
)
TELEMETRY = TelemetryConfig(counters=COUNTERS)


@pytest.mark.parametrize("runtime", ["hpx", "std"])
def test_runs_verified_on_both_runtimes(runtime):
    result = Session(runtime=runtime, cores=4).run(SPEC, telemetry=TELEMETRY)
    assert result.verified
    # 32 node tasks plus the driver, regardless of the backend.
    assert result.counters["/threads{locality#0/total}/count/cumulative"] == 33
    efficiency = result.counters["/taskbench{locality#0/total}/efficiency"]
    assert 0.0 <= efficiency <= 10000.0  # 0.01 % units


def test_counter_parity_hpx_vs_std():
    """The same graph reports identical task counts through either backend."""
    by_runtime = {
        runtime: Session(runtime=runtime, cores=4).run(SPEC, telemetry=TELEMETRY)
        for runtime in ("hpx", "std")
    }
    for name in COUNTERS[:2]:  # task counts; efficiency legitimately differs
        assert by_runtime["hpx"].counters[name] == by_runtime["std"].counters[name]
    assert by_runtime["hpx"].result is None and by_runtime["std"].result is None


def test_run_is_deterministic():
    a = Session(runtime="hpx", cores=4).run(SPEC, keep_result=True)
    b = Session(runtime="hpx", cores=4).run(SPEC, keep_result=True)
    assert a.result == b.result
    assert a.exec_time_ns == b.exec_time_ns


def test_result_matches_sequential_reference():
    result = Session(runtime="hpx", cores=2).run(SPEC, keep_result=True)
    graph = build_graph("stencil_1d", 8, 4, seed=20160523)
    assert result.result == graph_checksum(graph, 20160523)


def test_verify_rejects_wrong_checksum():
    bench = TaskBenchBenchmark()
    params = bench.params_with_defaults({"shape": "trivial", "width": 4, "steps": 2})
    assert not bench.verify(0xDEAD, params)


def test_task_count_helper_matches_graph():
    assert TaskBenchBenchmark.task_count("tree", 8, 4) == 8 + 4 + 2 + 1
    assert TaskBenchBenchmark.task_count("trivial", 16, 8) == 128


@pytest.mark.parametrize("shape", ["trivial", "fft", "tree", "random"])
def test_every_shape_executes(shape):
    spec = WorkloadSpec("taskbench", {"shape": shape, "width": 8, "steps": 3, "grain_ns": 500})
    assert Session(runtime="hpx", cores=4).run(spec).verified
