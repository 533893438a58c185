"""Preset registry, designator resolution, and default-platform parity."""

import pytest

from repro.api import Session, WorkloadSpec
from repro.platform import (
    DEFAULT_PLATFORM,
    default_platform,
    get_platform,
    platform_names,
    resolve_platform,
    save_platform_file,
)
from repro.platform.spec import PlatformError, PlatformSpec, SocketSpec
from repro.simcore.machine import Machine


def table_iii_platform() -> PlatformSpec:
    """The paper's node written out field by field (Table III)."""
    socket = SocketSpec(
        cores=10, freq_ghz=2.5, l3_bytes=25 * 1024 * 1024, peak_bw=42e9, per_core_bw=7.5e9
    )
    return PlatformSpec(
        name="ivybridge-2x10",
        sockets=(socket, socket),
        cross_socket_factor=1.6,
        ram_bytes=62 * 1024**3,
        ipc=1.6,
        l3_pressure_alpha=0.35,
        l3_max_factor=2.5,
    )


def test_registry_contents():
    names = platform_names()
    assert names[0] == DEFAULT_PLATFORM == "ivybridge-2x10"
    assert len(names) >= 3  # the default plus at least two sweepable presets
    for name in names:
        spec = get_platform(name)
        assert spec.name == name
    with pytest.raises(PlatformError, match="unknown platform"):
        get_platform("pentium-3")


def test_default_preset_is_the_legacy_machinespec():
    """The paper's node: the preset must hold exactly the Table III
    values every golden fixture was recorded on."""
    assert default_platform() == table_iii_platform()


def test_resolve_platform_accepts_every_designator(tmp_path):
    assert resolve_platform(None) == default_platform()
    spec = get_platform("desktop-1x8")
    assert resolve_platform(spec) is spec
    assert resolve_platform("desktop-1x8") == spec
    path = save_platform_file(spec, tmp_path / "node.toml")
    assert resolve_platform(str(path)) == spec
    with pytest.raises(PlatformError, match="unknown platform"):
        resolve_platform("no-such-preset")
    with pytest.raises(PlatformError, match="cannot resolve"):
        resolve_platform(42)


def test_machine_accepts_platform_designators():
    machine = Machine("hybrid-4p8e")
    assert machine.platform.name == "hybrid-4p8e"
    assert len(machine.cores) == 12
    assert [c.socket for c in machine.cores] == [0] * 4 + [1] * 8


def run_fib(**session_kwargs):
    return Session(runtime="hpx", cores=4, **session_kwargs).run(
        WorkloadSpec.parse("fib"), params={"n": 12}
    )


def test_default_platform_reproduces_legacy_numbers():
    """platform=None, the preset by name, and the Table III values
    written out must be bit-identical — the refactor moved the math,
    not changed it."""
    base = run_fib()
    for kwargs in ({"platform": "ivybridge-2x10"}, {"platform": table_iii_platform()}):
        other = run_fib(**kwargs)
        assert other.exec_time_ns == base.exec_time_ns
        assert other.counters == base.counters
        assert other.engine_events == base.engine_events


def test_platforms_actually_differ():
    default = run_fib()
    results = {default.exec_time_ns}
    for name in ("desktop-1x8", "epyc-2x64", "hybrid-4p8e"):
        result = run_fib(platform=name)
        assert result.verified
        results.add(result.exec_time_ns)
    assert len(results) >= 3  # the platform axis moves the simulation


def test_papi_substrate_respects_platform_events():
    from repro.papi.hw import PapiSubstrate

    narrow = PlatformSpec.from_json_dict(
        {
            **default_platform().to_json_dict(),
            "papi_events": ["OFFCORE_REQUESTS:ALL_DATA_RD"],
        }
    )
    papi = PapiSubstrate(Machine(narrow))
    assert papi.available("OFFCORE_REQUESTS:ALL_DATA_RD")
    assert not papi.available("OFFCORE_REQUESTS:DEMAND_RFO")
    with pytest.raises(KeyError, match="ivybridge-2x10"):
        papi.read("OFFCORE_REQUESTS:DEMAND_RFO")
