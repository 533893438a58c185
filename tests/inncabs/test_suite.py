"""Suite registry and benchmark metadata."""

import pytest

from repro.inncabs.base import DEFAULT_SEED, effective_locality_factor
from repro.inncabs.suite import available_benchmarks, get_benchmark

PAPER_TABLE_V = {
    "alignment": ("loop-like", "none", 2748.0),
    "health": ("loop-like", "none", 1.02),
    "sparselu": ("loop-like", "none", 988.0),
    "fft": ("recursive-balanced", "none", 1.03),
    "fib": ("recursive-balanced", "none", 1.37),
    "pyramids": ("recursive-balanced", "none", 246.0),
    "sort": ("recursive-balanced", "none", 52.1),
    "strassen": ("recursive-balanced", "none", 107.0),
    "floorplan": ("recursive-unbalanced", "atomic pruning", 4.60),
    "nqueens": ("recursive-unbalanced", "none", 28.1),
    "qap": ("recursive-unbalanced", "atomic pruning", 1.00),
    "uts": ("recursive-unbalanced", "none", 1.37),
    "intersim": ("co-dependent", "mult. mutex/task", 3.46),
    "round": ("co-dependent", "2 mutex/task", 9671.0),
}


def test_fourteen_benchmarks():
    assert len(available_benchmarks()) == 14
    assert set(available_benchmarks()) == set(PAPER_TABLE_V)


@pytest.mark.parametrize("name", sorted(PAPER_TABLE_V))
def test_metadata_matches_table_v(name):
    structure, sync, duration = PAPER_TABLE_V[name]
    info = get_benchmark(name).info
    assert info.structure == structure
    assert info.synchronization == sync
    assert info.paper_task_duration_us == duration


def test_get_unknown_benchmark():
    with pytest.raises(KeyError, match="available"):
        get_benchmark("linpack")


def test_params_with_defaults():
    bench = get_benchmark("fib")
    merged = bench.params_with_defaults({"n": 12})
    assert merged["n"] == 12
    assert merged["seed"] == DEFAULT_SEED
    assert "leaf_ns" in merged


def test_params_unknown_rejected():
    with pytest.raises(ValueError, match="unknown parameters"):
        get_benchmark("fib").params_with_defaults({"zzz": 1})


def test_locality_factor_profile():
    assert effective_locality_factor(1.45, 1) == 1.0
    assert effective_locality_factor(1.45, 2) == 1.45
    assert effective_locality_factor(1.45, 10) == 1.45
    mid = effective_locality_factor(1.45, 14)
    assert 1.0 < mid < 1.45
    assert effective_locality_factor(1.45, 18) == 1.0
    assert effective_locality_factor(1.0, 8) == 1.0


def test_only_pyramids_has_locality_penalty():
    for name in available_benchmarks():
        factor = get_benchmark(name).info.hpx_locality_factor
        if name == "pyramids":
            assert factor > 1.0
        else:
            assert factor == 1.0


def test_presets_cover_every_benchmark():
    from repro.inncabs.presets import PRESETS, validate_presets
    from repro.workloads import workload_preset_params

    assert set(PRESETS) == set(available_benchmarks())
    validate_presets()
    assert workload_preset_params("fib", "default") == {}
    assert workload_preset_params("fib", "small") == {"n": 12}


def test_preset_unknown_rejected():
    from repro.workloads import workload_preset_params

    with pytest.raises(KeyError, match="preset"):
        workload_preset_params("fib", "gigantic")
    with pytest.raises(KeyError, match="available"):
        workload_preset_params("linpack", "small")


def test_small_presets_run_quickly_and_verify():
    from repro.api import Session, WorkloadSpec
    from repro.workloads import workload_preset_params

    session = Session(runtime="hpx", cores=2)
    for name in ("fib", "sort", "qap"):
        result = session.run(
            WorkloadSpec.parse(name), params=workload_preset_params(name, "small")
        )
        assert result.verified
