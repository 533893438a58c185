"""The workload registry: discovery, presets, uniform errors."""

from __future__ import annotations

import pytest

from repro.inncabs.suite import available_benchmarks
from repro.taskbench import TASKBENCH_PRESETS, TaskBenchBenchmark
from repro.workloads import (
    WorkloadEntry,
    available_workloads,
    get_workload,
    register_workload,
    workload_preset_params,
)


def test_registry_is_inncabs_plus_taskbench_plus_fmm():
    names = available_workloads()
    assert names == sorted(names)
    assert set(names) == set(available_benchmarks()) | {"taskbench", "fmm"}
    assert len(names) == 16


def test_inncabs_suite_stays_inncabs_only():
    """Table V's surface is the 14 Inncabs apps; the registry is the superset."""
    assert "taskbench" not in available_benchmarks()


def test_get_workload_taskbench():
    entry = get_workload("taskbench")
    assert isinstance(entry.benchmark, TaskBenchBenchmark)
    assert entry.family == "taskbench"
    assert entry.presets == TASKBENCH_PRESETS
    assert entry.description


def test_get_workload_inncabs_carries_presets():
    entry = get_workload("fib")
    assert entry.family == "inncabs"
    assert "small" in entry.presets


def test_unknown_workload_error_lists_names():
    with pytest.raises(KeyError, match="taskbench"):
        get_workload("linpack")


def test_preset_params():
    assert workload_preset_params("taskbench", "default") == {}
    assert workload_preset_params("taskbench", "small") == {"width": 8, "steps": 4}
    assert workload_preset_params("taskbench", "large") == {"width": 128, "steps": 64}


def test_unknown_preset_error_lists_choices():
    with pytest.raises(KeyError, match="small"):
        workload_preset_params("taskbench", "huge")


def test_duplicate_registration_rejected():
    entry = get_workload("fib")
    with pytest.raises(ValueError, match="already registered"):
        register_workload(WorkloadEntry(name="fib", family="test", benchmark=entry.benchmark))


def test_each_parameter_minimum_is_its_bound():
    for name in available_workloads():
        bench = get_workload(name).benchmark
        for param, least in bench.param_minimums.items():
            default = bench.default_params[param]
            assert default is None or default >= least, (name, param)
            assert bench.params_with_defaults({param: least})[param] == least
            message = f"parameter '{param}' of {name} must be at least {least}, got {least - 1}"
            with pytest.raises(ValueError, match=message):
                bench.params_with_defaults({param: least - 1})
