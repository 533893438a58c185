"""WorkloadSpec: parsing, canonical spelling, eq/hash, serialization."""

from __future__ import annotations

import pytest

from repro.workloads import WorkloadSpec, as_workload_spec


# -- parsing -----------------------------------------------------------------


def test_parse_bare_name():
    spec = WorkloadSpec.parse("fib")
    assert spec.name == "fib"
    assert spec.params == {}
    assert spec.canonical() == "fib"


def test_parse_with_params_coerces_values():
    spec = WorkloadSpec.parse("taskbench:shape=fft,width=8,degree=2.5")
    assert spec.params == {"shape": "fft", "width": 8, "degree": 2.5}
    assert isinstance(spec.params["width"], int)
    assert isinstance(spec.params["degree"], float)
    assert isinstance(spec.params["shape"], str)


def test_canonical_sorts_parameters():
    a = WorkloadSpec.parse("taskbench:width=8,shape=fft")
    b = WorkloadSpec.parse("taskbench:shape=fft,width=8")
    assert a.canonical() == b.canonical() == "taskbench:shape=fft,width=8"
    assert str(a) == a.canonical()


def test_canonical_round_trips():
    for text in ("fib", "taskbench:shape=fft,width=8", "fib:n=10"):
        spec = WorkloadSpec.parse(text)
        assert WorkloadSpec.parse(spec.canonical()) == spec


@pytest.mark.parametrize(
    "bad",
    ["", "fib:n", "fib:=3", "fib:n=1,", "fib:,n=1"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        WorkloadSpec.parse(bad)


def test_name_rejects_reserved_characters():
    for name in ("a:b", "a,b", "a=b", ""):
        with pytest.raises(ValueError):
            WorkloadSpec(name)


# -- eq / hash ---------------------------------------------------------------


def test_equal_specs_hash_equal():
    a = WorkloadSpec("taskbench", {"width": 8, "shape": "fft"})
    b = WorkloadSpec.parse("taskbench:shape=fft,width=8")
    assert a == b
    assert hash(a) == hash(b)


def test_int_and_float_params_are_distinct():
    # 2 and 2.0 spell differently, so they must compare differently —
    # the eq/hash contract matches the canonical string.
    a = WorkloadSpec("fib", {"n": 2})
    b = WorkloadSpec("fib", {"n": 2.0})
    assert a != b
    assert a.canonical() != b.canonical()


def test_spec_is_usable_as_dict_key():
    cache = {WorkloadSpec.parse("taskbench:shape=fft,width=8"): 1}
    assert cache[WorkloadSpec("taskbench", {"width": 8, "shape": "fft"})] == 1


# -- canonical formatting edge cases -----------------------------------------


def test_canonical_rejects_unspellable_values():
    for params in ({"x": True}, {"x": "a,b"}, {"x": "k=v"}, {"x": [1]}):
        with pytest.raises(ValueError):
            WorkloadSpec("fib", params).canonical()


# -- serialization -----------------------------------------------------------


def test_json_round_trip():
    spec = WorkloadSpec.parse("taskbench:shape=fft,width=8")
    data = spec.to_json_dict()
    assert data == {"name": "taskbench", "params": {"shape": "fft", "width": 8}}
    assert WorkloadSpec.from_json_dict(data) == spec


def test_as_workload_spec_passes_specs_through():
    spec = WorkloadSpec.parse("fib:n=10")
    assert as_workload_spec(spec) is spec


@pytest.mark.parametrize("bad", ["fib:n=10", "fib", 7, None])
def test_as_workload_spec_rejects_non_specs(bad):
    """The legacy bare-string shim is gone: only WorkloadSpec is accepted,
    and the error points at WorkloadSpec.parse."""
    with pytest.raises(TypeError, match="WorkloadSpec.parse"):
        as_workload_spec(bad)


def test_session_run_rejects_bare_string():
    from repro.api import Session, TelemetryConfig

    session = Session(runtime="hpx", cores=1)
    with pytest.raises(TypeError, match="WorkloadSpec.parse"):
        session.run("fib", params={"n": 6}, telemetry=TelemetryConfig(counters=()))


def test_session_run_accepts_spec():
    from repro.api import Session, TelemetryConfig

    session = Session(runtime="hpx", cores=1)
    result = session.run(WorkloadSpec.parse("fib:n=6"), telemetry=TelemetryConfig(counters=()))
    assert result.verified


# -- resolution against the registry -----------------------------------------


def test_validate_merges_defaults_and_seed():
    resolved = WorkloadSpec.parse("fib:n=10").validate()
    assert resolved["n"] == 10
    assert "seed" in resolved


def test_validate_unknown_workload():
    with pytest.raises(KeyError, match="unknown workload"):
        WorkloadSpec("linpack").validate()


def test_validate_unknown_parameter():
    with pytest.raises(ValueError, match="unknown parameters"):
        WorkloadSpec("fib", {"zzz": 1}).validate()


def test_validate_extra_overlays_spec_params():
    resolved = WorkloadSpec.parse("fib:n=10").validate({"n": 12})
    assert resolved["n"] == 12


def test_build_returns_root_callable():
    root_fn, args, resolved = WorkloadSpec.parse("fib:n=5").build()
    assert callable(root_fn)
    assert resolved["n"] == 5
