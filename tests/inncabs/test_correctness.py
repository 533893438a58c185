"""Every benchmark computes a verified result on both runtimes.

Small inputs keep the matrix fast; correctness must hold regardless of
runtime, core count or scheduling order.
"""

import pytest

from repro.api import Session, TelemetryConfig, WorkloadSpec

#: Runs without counter instrumentation.
NO_COUNTERS = TelemetryConfig(counters=())

SMALL_PARAMS = {
    "alignment": {"nseq": 5, "seqlen": 60},
    "fft": {"n": 256, "cutoff": 4},
    "fib": {"n": 12},
    "floorplan": {"cutoff": 3},
    "health": {"levels": 3, "branching": 3, "steps": 3},
    "intersim": {"rounds": 4, "tasks_per_round": 16, "interchanges": 6},
    "nqueens": {"n": 8, "cutoff": 2},
    "pyramids": {"width": 1024, "steps": 32, "chunk": 8, "block": 256},
    "qap": {"n": 6, "cutoff": 2},
    "round": {"players": 6, "rounds": 3},
    "sort": {"n": 4096, "cutoff": 256},
    "sparselu": {"nb": 5, "bs": 16},
    "strassen": {"n": 64, "cutoff": 16},
    "uts": {"b0": 10, "m": 3, "q": 0.3, "max_depth": 6},
}


@pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
@pytest.mark.parametrize("cores", [1, 3])
def test_hpx_verified(name, cores):
    result = Session(runtime="hpx", cores=cores).run(
        WorkloadSpec.parse(name), params=SMALL_PARAMS[name]
    )
    assert not result.aborted
    assert result.verified, f"{name} failed verification on hpx/{cores}"
    assert result.tasks_executed == result.tasks_created
    assert result.exec_time_ns > 0


@pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
def test_std_verified(name):
    result = Session(runtime="std", cores=4).run(
        WorkloadSpec.parse(name), params=SMALL_PARAMS[name]
    )
    assert not result.aborted
    assert result.verified, f"{name} failed verification on std/4"


@pytest.mark.parametrize("name", sorted(SMALL_PARAMS))
def test_results_deterministic(name):
    a = Session(runtime="hpx", cores=2).run(WorkloadSpec.parse(name), params=SMALL_PARAMS[name])
    b = Session(runtime="hpx", cores=2).run(WorkloadSpec.parse(name), params=SMALL_PARAMS[name])
    assert a.exec_time_ns == b.exec_time_ns
    assert a.counters == b.counters


def test_unknown_runtime_rejected():
    with pytest.raises(ValueError, match="runtime"):
        Session(runtime="tbb", cores=1)


def test_keep_result():
    result = Session(runtime="hpx", cores=1).run(
        WorkloadSpec.parse("fib"), params={"n": 10}, keep_result=True
    )
    assert result.result == 55


def test_counter_lookup_error_lists_names():
    result = Session(runtime="hpx", cores=1).run(WorkloadSpec.parse("fib"), params={"n": 8})
    with pytest.raises(KeyError, match="/threads"):
        result.counter("/no/such/counter")


def test_collect_counters_false_is_faster():
    session = Session(runtime="hpx", cores=1)
    with_counters = session.run(WorkloadSpec.parse("fib"), params={"n": 12})
    without = session.run(WorkloadSpec.parse("fib"), params={"n": 12}, telemetry=NO_COUNTERS)
    assert without.counters == {}
    assert without.exec_time_ns < with_counters.exec_time_ns
