"""Thread-manager and PAPI counters cross-checked against ground truth."""

import pytest

from repro.telemetry.pipeline import TelemetryPipeline

from tests.conftest import fib_body


TOTAL = "locality#0/total"


def run_and_read(registry, hpx4, specs):
    pipeline = TelemetryPipeline(registry, specs)
    hpx4.run_to_completion(fib_body, 10)
    return {v.name: v.value for v in pipeline.sample()}, hpx4


def test_count_cumulative_matches_stats(registry, hpx4):
    values, rt = run_and_read(registry, hpx4, ["/threads/count/cumulative"])
    assert values[f"/threads{{{TOTAL}}}/count/cumulative"] == rt.stats.tasks_executed


def test_count_created_matches(registry, hpx4):
    values, rt = run_and_read(registry, hpx4, ["/threads/count/created"])
    assert values[f"/threads{{{TOTAL}}}/count/created"] == rt.stats.tasks_created


def test_time_average_is_ratio(registry, hpx4):
    values, rt = run_and_read(registry, hpx4, ["/threads/time/average", "/threads/time/cumulative"])
    avg = values[f"/threads{{{TOTAL}}}/time/average"]
    cum = values[f"/threads{{{TOTAL}}}/time/cumulative"]
    assert cum == rt.stats.exec_ns
    assert avg == pytest.approx(rt.stats.exec_ns / rt.stats.tasks_executed)


def test_overhead_counters(registry, hpx4):
    values, rt = run_and_read(
        registry,
        hpx4,
        ["/threads/time/average-overhead", "/threads/time/cumulative-overhead"],
    )
    assert values[f"/threads{{{TOTAL}}}/time/cumulative-overhead"] == rt.stats.overhead_ns
    assert values[f"/threads{{{TOTAL}}}/time/average-overhead"] == pytest.approx(
        rt.stats.overhead_ns / rt.stats.tasks_executed
    )


def test_per_worker_counts_sum_to_total(registry, hpx4):
    values, rt = run_and_read(
        registry,
        hpx4,
        [
            "/threads{locality#0/worker-thread#*}/count/cumulative",
            "/threads/count/cumulative",
        ],
    )
    workers = sum(v for k, v in values.items() if "worker-thread" in k)
    assert workers == values[f"/threads{{{TOTAL}}}/count/cumulative"]


def test_phases_at_least_tasks(registry, hpx4):
    values, rt = run_and_read(registry, hpx4, ["/threads/count/cumulative-phases"])
    assert values[f"/threads{{{TOTAL}}}/count/cumulative-phases"] >= rt.stats.tasks_executed


def test_stolen_counter(registry, hpx4):
    values, rt = run_and_read(registry, hpx4, ["/threads/count/stolen"])
    assert values[f"/threads{{{TOTAL}}}/count/stolen"] == rt.steals_total()
    assert values[f"/threads{{{TOTAL}}}/count/stolen"] > 0  # 4 workers steal


def test_pending_queue_counter_zero_after_run(registry, hpx4):
    values, _ = run_and_read(registry, hpx4, ["/threads/count/instantaneous/pending"])
    assert values[f"/threads{{{TOTAL}}}/count/instantaneous/pending"] == 0


def test_idle_rate_in_hpx_units(registry, hpx4):
    values, rt = run_and_read(registry, hpx4, ["/threads/idle-rate"])
    idle = values[f"/threads{{{TOTAL}}}/idle-rate"]
    assert 0 <= idle <= 10_000  # 0.01% units
    assert idle == pytest.approx(rt.idle_rate() * 10_000, abs=1.0)


def test_uptime_counter(registry, hpx4, engine):
    values, _ = run_and_read(registry, hpx4, ["/runtime/uptime"])
    assert values["/runtime{locality#0/total}/uptime"] == engine.now


def test_live_tasks_counter(registry, hpx4):
    values, _ = run_and_read(registry, hpx4, ["/runtime/count/tasks-live"])
    assert values["/runtime{locality#0/total}/count/tasks-live"] == 0


def test_papi_total_matches_machine(registry, hpx4, machine):
    values, _ = run_and_read(
        registry,
        hpx4,
        [
            "/papi{locality#0/total}/OFFCORE_REQUESTS:ALL_DATA_RD",
            "/papi{locality#0/total}/OFFCORE_REQUESTS:DEMAND_RFO",
            "/papi{locality#0/total}/OFFCORE_REQUESTS:DEMAND_CODE_RD",
        ],
    )
    hw_total = sum(core.hw.offcore_total() for core in machine.cores)
    assert sum(values.values()) == hw_total
    assert hw_total > 0  # fib_body touches memory


def test_papi_per_worker_instance(registry, hpx4, machine):
    values, rt = run_and_read(registry, hpx4, ["/papi{locality#0/worker-thread#0}/PAPI_TOT_CYC"])
    core_index = rt.workers[0].core_index
    assert (
        values["/papi{locality#0/worker-thread#0}/PAPI_TOT_CYC"]
        == machine.cores[core_index].hw.cycles
    )


def test_bandwidth_arithmetic_counter(registry, hpx4, engine):
    """The paper's bandwidth formula as a derived counter."""
    spec = (
        "/arithmetics/add@"
        "/papi{locality#0/total}/OFFCORE_REQUESTS:ALL_DATA_RD,"
        "/papi{locality#0/total}/OFFCORE_REQUESTS:DEMAND_CODE_RD,"
        "/papi{locality#0/total}/OFFCORE_REQUESTS:DEMAND_RFO"
    )
    values, _ = run_and_read(registry, hpx4, [spec])
    requests = list(values.values())[0]
    assert requests > 0
    bandwidth = requests * 64 / (engine.now / 1e9)
    assert bandwidth > 0


def test_suspended_counter_zero_after_run(registry, hpx4):
    values, rt = run_and_read(
        registry, hpx4, ["/threads{locality#0/total}/count/instantaneous/suspended"]
    )
    assert values[f"/threads{{{TOTAL}}}/count/instantaneous/suspended"] == 0
    assert rt.stats.suspended_tasks == 0


def test_active_counter_zero_after_run(registry, hpx4):
    values, _ = run_and_read(
        registry, hpx4, ["/threads{locality#0/total}/count/instantaneous/active"]
    )
    assert values[f"/threads{{{TOTAL}}}/count/instantaneous/active"] == 0


def test_pending_wait_time_counter(registry, hpx4):
    values, rt = run_and_read(registry, hpx4, ["/threads/wait-time/pending"])
    avg_wait = values[f"/threads{{{TOTAL}}}/wait-time/pending"]
    assert avg_wait > 0
    assert avg_wait == pytest.approx(rt.stats.pending_wait_ns / rt.stats.pending_waits)


def test_cross_socket_steal_counter(registry, hpx4):
    values, rt = run_and_read(registry, hpx4, ["/threads/count/stolen-cross-socket"])
    # 4 compact workers share socket 0: no cross-socket steals.
    assert values[f"/threads{{{TOTAL}}}/count/stolen-cross-socket"] == 0


def test_scheduler_utilization_counter(registry, hpx4):
    values, _ = run_and_read(
        registry, hpx4, ["/scheduler{locality#0/total}/utilization/instantaneous"]
    )
    assert values["/scheduler{locality#0/total}/utilization/instantaneous"] == 0.0
