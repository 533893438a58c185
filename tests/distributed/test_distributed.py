"""Distributed substrate: parcels, AGAS, remote execution and counters."""

import pytest

from repro.distributed import DistributedSystem, NetworkParams
from repro.distributed.agas import AgasError
from repro.simcore.events import Engine


@pytest.fixture
def system():
    engine = Engine()
    return DistributedSystem(
        engine,
        localities=3,
        cores_per_locality=2,
        platform="ivybridge-2x10",
    )


def _compute_task(ctx, n):
    yield ctx.compute(5_000)
    return n * n


def test_system_validation():
    with pytest.raises(ValueError):
        DistributedSystem(Engine(), localities=0, cores_per_locality=1)


def test_remote_async_returns_value(system):
    fut = system.async_remote(0, 1, _compute_task, 7)
    system.run()
    assert fut.value() == 49


def test_local_async_short_circuits(system):
    fut = system.async_remote(2, 2, _compute_task, 3)
    system.run()
    assert fut.value() == 9
    # No parcels for same-locality calls.
    assert system.localities[2].parcelport.stats.sent == 0


def test_remote_call_takes_network_time(system):
    fut = system.async_remote(0, 1, _compute_task, 1)
    system.run()
    # Two transits + 5 us of work: well above the local-only time.
    assert system.engine.now > 2 * system.network.latency_ns + 5_000


def test_remote_exception_travels_home(system):
    def boom(ctx):
        yield ctx.compute(10)
        raise ValueError("remote failure")

    fut = system.async_remote(0, 2, boom)
    system.run()
    with pytest.raises(ValueError, match="remote failure"):
        fut.value()


def test_parcel_accounting(system):
    fut = system.async_remote(0, 1, _compute_task, 2)
    system.run()
    assert fut.is_ready
    sender = system.localities[0].parcelport.stats
    receiver = system.localities[1].parcelport.stats
    assert sender.sent == 1 and receiver.received == 1
    assert receiver.sent == 1 and sender.received == 1  # the result parcel
    assert sender.bytes_sent >= 512
    assert receiver.latency_sum_ns > 0


def test_parcel_to_unknown_locality_rejected(system):
    with pytest.raises(KeyError):
        system.localities[0].parcelport.send(9, _compute_task, ())


def test_parcel_to_self_rejected(system):
    with pytest.raises(ValueError, match="remote"):
        system.localities[0].parcelport.send(0, _compute_task, ())


def test_network_transit_model():
    net = NetworkParams(latency_ns=1000, bandwidth_bytes_per_s=1e9, serialize_ns_per_kb=100)
    # 1 KB: 1000 wire-latency + ~1000 bandwidth + 200 serialize-ish.
    t = net.transit_ns(1024)
    assert t == 1000 + 1024 + 200


def test_agas_bind_and_resolve(system):
    fut = system.register_name(1, "my/component", payload={"kind": "demo"})
    system.run()
    entry = fut.value()
    assert entry.locality == 1
    rfut = system.resolve_name(2, "my/component")
    system.run()
    assert rfut.value().payload == {"kind": "demo"}
    assert system.agas.stats.binds == 1
    assert system.agas.stats.resolves == 1


def test_agas_cache_hits(system):
    system.register_name(0, "cached/name").value
    system.run()
    f1 = system.resolve_name(2, "cached/name")
    system.run()
    before = system.agas.stats.resolves
    f2 = system.resolve_name(2, "cached/name")
    system.run()
    assert f2.value() == f1.value()
    assert system.agas.stats.resolves == before  # served from cache
    assert system.agas.stats.cache_hits >= 1


def test_agas_duplicate_bind_rejected(system):
    system.register_name(0, "dup")
    system.run()
    with pytest.raises(AgasError):
        system.agas.bind("dup", 1)


def test_agas_unknown_resolve(system):
    with pytest.raises(AgasError):
        system.agas.resolve("nope")


def test_remote_counter_query(system):
    """The paper: any counter is accessible remotely by name."""
    # Generate some work on locality 1 first.
    warm = system.async_remote(1, 1, _compute_task, 5)
    system.run()
    assert warm.value() == 25
    fut = system.query_counter(0, 1, "/threads{locality#0/total}/count/cumulative")
    system.run()
    # locality 1 executed the warm task plus the query task itself.
    assert fut.value() >= 1
    assert system.localities[0].parcelport.stats.sent >= 1


def test_parcel_counters_readable(system):
    fut = system.async_remote(0, 1, _compute_task, 1)
    system.run()
    registry = system.localities[0].registry
    sent = registry.create_counter("/parcels{locality#0/total}/count/sent")
    assert sent.read() == 1
    latency = registry.create_counter("/parcels{locality#0/total}/time/average-latency")
    assert latency.read() > 0  # the result parcel came back


def test_agas_counters_readable(system):
    system.register_name(1, "counted")
    system.run()
    registry = system.localities[0].registry
    binds = registry.create_counter("/agas{locality#0/total}/count/bind")
    assert binds.read() == 1


def test_remote_counter_perturbs_target_not_source(system):
    """In-band remote queries cost scheduler time on the *target*."""
    fut = system.query_counter(0, 2, "/runtime{locality#0/total}/uptime")
    system.run()
    assert fut.is_ready
    assert system.localities[2].runtime.stats.tasks_executed >= 1
    assert system.localities[0].runtime.stats.tasks_executed == 0


def test_remote_query_costs_the_serving_platform():
    """The in-band evaluation charges the target its platform's query cost."""
    system = DistributedSystem(Engine(), localities=2, cores_per_locality=2, platform="desktop-1x8")
    fut = system.query_counter(0, 1, "/runtime{locality#0/total}/uptime")
    system.run()
    assert fut.is_ready
    target = system.localities[1].runtime.stats
    assert target.tasks_executed == 1
    assert target.exec_ns == system.localities[1].machine.platform.counter_query_cost_ns == 404
