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
from repro.platform.spec import PlatformError, PlatformSpec
from repro.simcore.machine import Machine, MachineSpec


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
    """The paper's node: the preset and the legacy default must agree
    exactly, or every golden fixture in the repo would shift."""
    assert default_platform() == MachineSpec().to_platform()


def test_resolve_platform_accepts_every_designator(tmp_path):
    assert resolve_platform(None) == default_platform()
    spec = get_platform("desktop-1x8")
    assert resolve_platform(spec) is spec
    assert resolve_platform("desktop-1x8") == spec
    assert resolve_platform(MachineSpec()) == default_platform()
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
    return Session(runtime="hpx", cores=4, **session_kwargs).run(WorkloadSpec.parse("fib"), params={"n": 12})


def test_default_platform_reproduces_legacy_numbers():
    """platform=None, the preset by name, and the legacy MachineSpec
    must be bit-identical — the refactor moved the math, not changed it."""
    base = run_fib()
    for kwargs in ({"platform": "ivybridge-2x10"}, {"machine": MachineSpec()}):
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


def test_session_rejects_platform_and_machine_together():
    with pytest.raises(ValueError, match="not both"):
        Session(platform="desktop-1x8", machine=MachineSpec())


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
