"""Counter registry: discovery and creation."""

import pytest

from repro.counters.names import CounterNameError


def test_types_registered(registry):
    names = [e.info.type_name for e in registry.counter_types()]
    assert "/threads/time/average" in names
    assert "/threads/time/average-overhead" in names
    assert "/threads/idle-rate" in names
    assert "/papi/OFFCORE_REQUESTS:ALL_DATA_RD" in names
    assert "/runtime/uptime" in names


def test_types_pattern_filter(registry):
    names = [e.info.type_name for e in registry.counter_types("/papi/*")]
    assert names
    assert all(n.startswith("/papi/") for n in names)


def test_discover_concrete_name(registry):
    spec = "/threads{locality#0/total}/time/average"
    assert registry.discover_counters(spec) == [spec]


def test_discover_default_instance(registry):
    assert registry.discover_counters("/threads/time/average") == [
        "/threads{locality#0/total}/time/average"
    ]


def test_discover_worker_wildcard(registry):
    names = registry.discover_counters("/threads{locality#0/worker-thread#*}/count/cumulative")
    assert names == [
        f"/threads{{locality#0/worker-thread#{i}}}/count/cumulative" for i in range(4)
    ]


def test_discover_unknown_type(registry):
    with pytest.raises(CounterNameError, match="unknown counter type"):
        registry.discover_counters("/threads/not-a-counter")


def test_create_counter(registry):
    c = registry.create_counter("/threads{locality#0/total}/count/cumulative")
    assert c.read() == 0.0


def test_create_wildcard_rejected(registry):
    with pytest.raises(CounterNameError, match="wildcard"):
        registry.create_counter("/threads{locality#0/worker-thread#*}/time/average")


def test_create_worker_out_of_range(registry):
    with pytest.raises(ValueError, match="index"):
        registry.create_counter("/threads{locality#0/worker-thread#99}/time/average")


def test_create_counters_expands(registry):
    counters = registry.create_counters(
        ["/threads{locality#0/worker-thread#*}/time/average", "/runtime/uptime"]
    )
    assert len(counters) == 5


def test_create_arithmetic(registry):
    c = registry.create_counter(
        "/arithmetics/add@/threads{locality#0/total}/count/cumulative,"
        "/threads{locality#0/total}/count/created"
    )
    assert c.read() == 0.0
    assert len(c.underlying) == 2


def test_create_arithmetic_with_factor(registry):
    c = registry.create_counter(
        "/arithmetics/scale@/threads{locality#0/total}/count/cumulative,factor=64"
    )
    assert c.factor == 64.0


def test_arithmetic_requires_params(registry):
    with pytest.raises(CounterNameError, match="parameters"):
        registry.create_counter("/arithmetics/add")


def test_create_statistics(registry):
    c = registry.create_counter(
        "/statistics{/threads{locality#0/total}/time/average}/rolling_average@3"
    )
    assert c.op == "rolling_average"
    assert c._window == 3


def test_statistics_requires_embedded(registry):
    with pytest.raises(CounterNameError, match="embedded"):
        registry.create_counter("/statistics{locality#0/total}/average")


def test_duplicate_registration_rejected(registry):
    entry = registry.counter_types()[0]

    class Duplicate:
        name = "dup"

        def counter_types(self, env):
            return [entry]

    with pytest.raises(ValueError, match="already registered"):
        registry.install(Duplicate())


def test_runtime_counters_total_only(registry):
    assert registry.discover_counters("/runtime{locality#*/total}/uptime") == [
        "/runtime{locality#0/total}/uptime"
    ]
