"""Wildcard discovery on asymmetric platforms; nested statistics names.

The ISSUE's satellite coverage: ``worker-thread#*`` and ``locality#*``
expansion on the hybrid-4p8e preset (4 fast + 8 slow cores across two
uneven sockets), and nested-brace statistics counter names
round-tripping through ``CounterName.parse``.
"""

import pytest

from repro.counters.base import CounterEnvironment
from repro.counters.names import CounterName, format_counter_name
from repro.counters.providers import build_registry
from repro.papi.hw import PapiSubstrate
from repro.platform.presets import get_platform
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine
from repro.telemetry.pipeline import TelemetryPipeline


@pytest.fixture
def hybrid_registry():
    """A registry over an HPX runtime using every hybrid-4p8e core."""
    engine = Engine()
    machine = Machine(get_platform("hybrid-4p8e"))
    runtime = HpxRuntime(engine, machine, num_workers=12)
    env = CounterEnvironment(
        engine=engine, runtime=runtime, machine=machine, papi=PapiSubstrate(machine)
    )
    return build_registry(env)


def test_worker_thread_wildcard_covers_asymmetric_topology(hybrid_registry):
    pipe = TelemetryPipeline(
        hybrid_registry, ["/threads{locality#0/worker-thread#*}/time/average"]
    )
    # 4 performance + 8 efficiency cores: one stream per worker thread.
    assert len(pipe) == 12
    assert pipe.names() == [
        f"/threads{{locality#0/worker-thread#{i}}}/time/average" for i in range(12)
    ]


def test_locality_wildcard_expands(hybrid_registry):
    pipe = TelemetryPipeline(hybrid_registry, ["/threads{locality#*/total}/idle-rate"])
    assert pipe.names() == ["/threads{locality#0/total}/idle-rate"]


def test_wildcard_sampling_on_hybrid_platform(hybrid_registry):
    """Expanded counters actually evaluate on the asymmetric node."""
    pipe = TelemetryPipeline(
        hybrid_registry, ["/threads{locality#0/worker-thread#*}/count/cumulative"]
    )
    values = pipe.sample()
    assert len(values) == 12
    assert pipe.frame.names() == pipe.names()


def test_statistics_counter_resolves_through_pipeline(hybrid_registry):
    nested = "/statistics{/threads{locality#0/total}/idle-rate}/rolling_average@3"
    pipe = TelemetryPipeline(hybrid_registry, [nested])
    assert pipe.names() == [nested]
    (sample,) = pipe.sample()
    assert str(sample.name) == nested


def test_nested_statistics_name_round_trips_through_parse():
    text = "/statistics{/threads{locality#0/worker-thread#2}/time/average}/rolling_average@5"
    name = CounterName.parse(text)
    assert name.object_name == "statistics"
    assert name.counter_name == "rolling_average"
    assert name.parameters == "5"
    assert name.embedded_instance == "/threads{locality#0/worker-thread#2}/time/average"
    assert format_counter_name(name) == text
    assert str(name) == text
    # The embedded name is itself parseable, one brace level down.
    inner = CounterName.parse(name.embedded_instance)
    assert inner.instance_name == "worker-thread"
    assert inner.instance_index == 2


def test_parse_classmethod_matches_module_function():
    from repro.counters.names import parse_counter_name

    text = "/threads{locality#0/worker-thread#*}/count/cumulative"
    assert CounterName.parse(text) == parse_counter_name(text)
    assert CounterName.parse(text).has_wildcard


# -- plugin-provided counters ------------------------------------------------


@pytest.fixture
def hybrid_plugin_registry():
    """hybrid-4p8e registry with a plugin counter instanced per shard."""
    from repro.counters import AppCounterSet, build_registry

    counters = AppCounterSet("plugdemo")
    handles = [counters.counter("events", instance=("shard", i)) for i in range(5)]
    engine = Engine()
    machine = Machine(get_platform("hybrid-4p8e"))
    runtime = HpxRuntime(engine, machine, num_workers=12)
    env = CounterEnvironment(
        engine=engine, runtime=runtime, machine=machine, papi=PapiSubstrate(machine)
    )
    return build_registry(env, providers=(counters,)), handles


def test_wildcard_discovery_over_plugin_instances(hybrid_plugin_registry):
    """``#*`` expansion works identically for plugin-declared counters."""
    registry, _handles = hybrid_plugin_registry
    pipe = TelemetryPipeline(registry, ["/plugdemo{locality#0/shard#*}/events"])
    assert pipe.names() == [f"/plugdemo{{locality#0/shard#{i}}}/events" for i in range(5)]


def test_plugin_wildcard_streams_live_values(hybrid_plugin_registry):
    registry, handles = hybrid_plugin_registry
    pipe = TelemetryPipeline(registry, ["/plugdemo{locality#0/shard#*}/events"])
    for i, handle in enumerate(handles):
        handle.add(i + 1)
    values = pipe.sample()
    assert [v.value for v in values] == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_plugin_and_builtin_wildcards_mix_in_one_pipeline(hybrid_plugin_registry):
    registry, _handles = hybrid_plugin_registry
    pipe = TelemetryPipeline(
        registry,
        [
            "/threads{locality#0/worker-thread#*}/count/cumulative",
            "/plugdemo{locality#0/shard#*}/events",
        ],
    )
    assert len(pipe) == 12 + 5
    assert len(pipe.sample()) == 17
