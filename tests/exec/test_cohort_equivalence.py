"""Cohort-vs-exact equivalence: counts bit-equal, times within bounds.

The mesoscale engine is an approximation with an exactness contract
(see ``docs/cohort.md``): structural counters (task counts) are
bit-identical to the exact engine, boundary samples are deterministic,
and time-like totals agree within documented error bounds.  These
tests pin both halves on small inputs where the exact engine is cheap.
"""

import random

import pytest

from repro.api import Session, TelemetryConfig
from repro.workloads import WorkloadSpec

#: Runs without counter instrumentation.
NO_COUNTERS = TelemetryConfig(counters=())

#: Documented worst-case relative error on time-like totals (exec time,
#: cumulative exec/overhead ns).  Measured: hpx fib -15%, std fib -5%,
#: taskbench trivial +36% (the sequential driver does not overlap with
#: node execution in the mean-value model).
TIME_RTOL = 0.40

SEED = 20160523


def _run(spec, runtime, cores, mode, **kwargs):
    session = Session(runtime=runtime, cores=cores)
    return session.run(WorkloadSpec.parse(spec), mode=mode, **kwargs)


def _close(a, b, rtol=TIME_RTOL):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1)


# -- fib: the calibrated flagship -------------------------------------------


@pytest.mark.parametrize("runtime", ["hpx", "std"])
@pytest.mark.parametrize("n", [10, 12])
def test_fib_counts_match_exactly(runtime, n):
    exact = _run(f"fib:n={n}", runtime, 4, "exact", telemetry=NO_COUNTERS)
    cohort = _run(f"fib:n={n}", runtime, 4, "cohort", telemetry=NO_COUNTERS)
    assert cohort.verified and exact.verified
    assert cohort.tasks_created == exact.tasks_created
    assert cohort.tasks_executed == exact.tasks_executed
    assert _close(cohort.exec_time_ns, exact.exec_time_ns)
    # Far fewer engine events is the whole point of the mesoscale path.
    assert cohort.engine_events < exact.engine_events / 10


def test_fib_hpx_peak_live_matches_exactly():
    # The hpx live-population model is calibrated against the exact
    # engine's lazy depth-first admission: workers x (depth - 2).
    exact = _run("fib:n=12", "hpx", 8, "exact", telemetry=NO_COUNTERS)
    cohort = _run("fib:n=12", "hpx", 8, "cohort", telemetry=NO_COUNTERS)
    assert cohort.peak_live_tasks == exact.peak_live_tasks


def test_fib_std_peak_live_within_bound():
    exact = _run("fib:n=12", "std", 4, "exact", telemetry=NO_COUNTERS)
    cohort = _run("fib:n=12", "std", 4, "cohort", telemetry=NO_COUNTERS)
    assert _close(cohort.peak_live_tasks, exact.peak_live_tasks, rtol=0.15)


def test_fib_offcore_traffic_matches_exactly():
    # Off-core traffic is per-task resource-model bookkeeping, not a
    # scheduling quantity: the cohort books the same per-member charge.
    exact = _run("fib:n=12", "hpx", 4, "exact")
    cohort = _run("fib:n=12", "hpx", 4, "cohort")
    assert cohort.offcore_bytes == exact.offcore_bytes
    for name in (
        "/papi{locality#0/total}/OFFCORE_REQUESTS:ALL_DATA_RD",
        "/threads{locality#0/total}/count/cumulative",
    ):
        assert cohort.counters[name] == exact.counters[name], name


def test_fib_counter_totals_within_bounds():
    exact = _run("fib:n=12", "hpx", 4, "exact")
    cohort = _run("fib:n=12", "hpx", 4, "cohort")
    for name in (
        "/threads{locality#0/total}/time/average",
        "/threads{locality#0/total}/time/cumulative-overhead",
    ):
        assert _close(cohort.counters[name], exact.counters[name]), name


# -- nqueens: the unbalanced recursive tree ---------------------------------


@pytest.mark.parametrize("runtime", ["hpx", "std"])
@pytest.mark.parametrize("n,cutoff", [(8, 3), (10, 4)])
def test_nqueens_counts_match_exactly(runtime, n, cutoff):
    spec = f"nqueens:n={n},cutoff={cutoff}"
    exact = _run(spec, runtime, 4, "exact", telemetry=NO_COUNTERS)
    cohort = _run(spec, runtime, 4, "cohort", telemetry=NO_COUNTERS)
    assert cohort.verified and exact.verified
    assert cohort.tasks_created == exact.tasks_created
    assert cohort.tasks_executed == exact.tasks_executed
    assert _close(cohort.exec_time_ns, exact.exec_time_ns)
    assert cohort.engine_events < exact.engine_events / 10


def test_nqueens_counter_totals_within_bounds():
    exact = _run("nqueens:n=10,cutoff=4", "hpx", 4, "exact")
    cohort = _run("nqueens:n=10,cutoff=4", "hpx", 4, "cohort")
    assert (
        cohort.counters["/threads{locality#0/total}/count/cumulative"]
        == exact.counters["/threads{locality#0/total}/count/cumulative"]
    )
    for name in (
        "/threads{locality#0/total}/time/average",
        "/threads{locality#0/total}/time/cumulative-overhead",
    ):
        assert _close(cohort.counters[name], exact.counters[name]), name


def test_nqueens_without_known_solution_is_ineligible():
    from repro.exec.modes import CohortIneligibleError

    # n=13 is outside the known-solutions table, so the plan's result
    # could not be exact; the workload must refuse a cohort run.
    with pytest.raises(CohortIneligibleError):
        _run("nqueens:n=13,cutoff=3", "hpx", 4, "cohort", telemetry=NO_COUNTERS)


# -- abort parity: the std thread explosion ---------------------------------


def test_std_stack_exhaustion_aborts_in_both_modes():
    exact = _run("fib:n=19", "std", 4, "exact", telemetry=NO_COUNTERS)
    cohort = _run("fib:n=19", "std", 4, "cohort", telemetry=NO_COUNTERS)
    assert exact.aborted and cohort.aborted
    assert cohort.peak_live_tasks == exact.peak_live_tasks
    assert cohort.abort_reason.startswith("thread stacks exhausted memory")
    assert (
        cohort.abort_reason.splitlines()[0] == exact.abort_reason.splitlines()[0]
    )


# -- seeded random homogeneous DAGs -----------------------------------------


def _random_trivial_configs(count):
    rng = random.Random(SEED)
    for _ in range(count):
        yield {
            "width": rng.randrange(4, 64),
            "steps": rng.randrange(2, 32),
            "grain_ns": rng.choice([500, 2000, 10000]),
            "membytes": rng.choice([0, 4096]),
            "cores": rng.choice([2, 4, 8]),
            "runtime": rng.choice(["hpx", "std"]),
        }


@pytest.mark.parametrize("config", list(_random_trivial_configs(6)), ids=str)
def test_random_homogeneous_dags_agree(config):
    spec = (
        "taskbench:shape=trivial,width={width},steps={steps},"
        "grain_ns={grain_ns},membytes={membytes}".format(**config)
    )
    exact = _run(spec, config["runtime"], config["cores"], "exact", telemetry=NO_COUNTERS)
    cohort = _run(spec, config["runtime"], config["cores"], "cohort", telemetry=NO_COUNTERS)
    assert exact.verified and cohort.verified
    assert cohort.tasks_created == exact.tasks_created
    assert cohort.tasks_executed == exact.tasks_executed
    assert _close(cohort.exec_time_ns, exact.exec_time_ns)


# -- boundary determinism ----------------------------------------------------


def test_boundary_samples_are_bit_exact_across_runs():
    a = _run("fib:n=12", "hpx", 4, "cohort")
    b = _run("fib:n=12", "hpx", 4, "cohort")
    assert a.counters == b.counters
    assert a.exec_time_ns == b.exec_time_ns


def test_final_totals_equal_telemetry_totals():
    result = _run("fib:n=12", "hpx", 4, "cohort")
    assert result.telemetry is not None
    assert result.telemetry.totals() == result.counters


# -- paper scale -------------------------------------------------------------


def test_paper_scale_fib_completes_instantly():
    import time

    t0 = time.monotonic()
    result = _run("fib:n=40", "hpx", 20, "cohort", telemetry=NO_COUNTERS)
    elapsed = time.monotonic() - t0
    assert result.verified
    assert result.tasks_executed == 331_160_281  # 2*F(41) - 1
    assert elapsed < 30.0  # seconds-fast where exact would take hours
