"""CampaignSpec: cell enumeration, cache keys, serialization."""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign.spec import CampaignSpec, cell_cache_key
from repro.kernel.config import StdParams, default_std_params
from repro.runtime.config import HpxParams


def make_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        benchmarks=("fib", "sort"),
        runtimes=("hpx", "std"),
        core_counts=(1, 2),
        samples=2,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def test_cells_enumerated_in_canonical_order():
    spec = make_spec()
    cells = list(spec.cells())
    assert len(cells) == 2 * 2 * 2 * 2
    assert [c.benchmark for c in cells[:8]] == ["fib"] * 8
    first = cells[0]
    assert (first.runtime, first.cores, first.sample) == ("hpx", 1, 0)
    # seeds vary per sample exactly like the serial harness always did
    assert cells[0].seed == spec.seed
    assert cells[1].seed == spec.seed + 1


def test_cell_params_overlay_preset_and_seed():
    spec = make_spec(benchmarks=("fib",), preset="small", params={"leaf_ns": 99})
    cell = next(iter(spec.cells()))
    params = spec.cell_params(cell)
    assert params["n"] == 12  # fib small preset
    assert params["leaf_ns"] == 99  # explicit override wins
    assert params["seed"] == cell.seed


#: Specs whose runs could only fail, by what makes them fail.
REFUSED = {
    "cores-0": {"core_counts": (0,)},
    "cores-64": {"core_counts": (64,)},
    "param-nn": {"params": {"nn": 3}},
    "mode-bogus": {"params": {"mode": "bogus"}},
    "preset-bogus": {"preset": "bogus"},
    "seed-x": {"seed": "x"},
    "profile-cohort": {"profile": True, "params": {"mode": "cohort"}},
    "param-type": {"params": {"n": "abc"}},
    "seed-twice": {"params": {"seed": 5}},
    # Values below a parameter's minimum: each of these runs for ever
    # (the first four) or deadlocks, so the table must never run them.
    "sort-cutoff-0": {"benchmarks": ("sort:cutoff=0",)},
    "pyramids-block-0": {"benchmarks": ("pyramids:block=0",)},
    "pyramids-chunk-0": {"benchmarks": ("pyramids:chunk=0",)},
    "strassen-cutoff-0": {"benchmarks": ("strassen:cutoff=0",)},
    "round-players-1": {"benchmarks": ("round:players=1",)},
}


@pytest.mark.parametrize("overrides", REFUSED.values(), ids=REFUSED.keys())
def test_runs_that_can_only_fail_are_refused_at_construction(overrides):
    """Every run of the matrix is validated before any cell is keyed or run."""
    with pytest.raises(ValueError):
        make_spec(**{"benchmarks": ("fib",), **overrides})


def test_unknown_runtime_rejected():
    with pytest.raises(ValueError, match="unknown runtime"):
        make_spec(runtimes=("hpx", "tbb"))


def test_cache_key_stable_across_matrix_shape():
    """Growing the campaign must not invalidate existing cells."""
    small = make_spec(benchmarks=("fib",), core_counts=(1,))
    big = make_spec(benchmarks=("fib", "sort"), core_counts=(1, 2, 4))
    cell = next(iter(small.cells()))
    assert cell_cache_key(small, cell) == cell_cache_key(big, cell)


def test_cache_key_sensitive_to_inputs():
    spec = make_spec()
    cell = next(iter(spec.cells()))
    baseline = cell_cache_key(spec, cell)
    assert cell_cache_key(make_spec(seed=1), dataclasses.replace(cell, seed=1)) != baseline
    assert cell_cache_key(make_spec(params={"n": 9}), cell) != baseline
    faster = dataclasses.replace(spec.hpx, context_switch_ns=1)
    assert cell_cache_key(make_spec(hpx=faster), cell) != baseline


def test_cache_key_ignores_other_runtimes_params():
    """An hpx cell survives a std::async recalibration, and vice versa."""
    spec = make_spec()
    hpx_cell = next(c for c in spec.cells() if c.runtime == "hpx")
    std_cell = next(c for c in spec.cells() if c.runtime == "std")
    retuned = make_spec(
        std=StdParams(thread_create_ns=1),
        hpx=HpxParams(task_create_ns=1),
    )
    assert cell_cache_key(spec, hpx_cell) != cell_cache_key(retuned, hpx_cell)
    assert cell_cache_key(spec, std_cell) != cell_cache_key(retuned, std_cell)
    only_std_retuned = make_spec(std=StdParams(thread_create_ns=1))
    assert cell_cache_key(spec, hpx_cell) == cell_cache_key(only_std_retuned, hpx_cell)
    only_hpx_retuned = make_spec(hpx=HpxParams(task_create_ns=1))
    assert cell_cache_key(spec, std_cell) == cell_cache_key(only_hpx_retuned, std_cell)


def test_default_std_is_the_scaled_budget():
    assert make_spec().std == default_std_params()


def test_json_roundtrip_preserves_identity():
    for counters in (None, (), ("/runtime/uptime",)):
        spec = make_spec(preset="small", params={"n": 10}, counters=counters)
        clone = CampaignSpec.from_json_dict(spec.to_json_dict())
        assert clone == spec
        assert clone.spec_id() == spec.spec_id()


def test_counters_are_the_cells_counter_set():
    """``None`` is the paper's set, ``()`` is off, a list names counters."""
    cell = next(make_spec().cells())
    assert make_spec().run_spec(cell).counters is None
    assert make_spec(counters=()).run_spec(cell).counters == ()
    named = make_spec(counters=["/runtime/uptime"])
    assert named.counters == ("/runtime/uptime",)
    assert named.run_spec(cell).counters == ("/runtime/uptime",)


def test_cache_key_sensitive_to_platform():
    """Two cells differing only in platform must never share a result."""
    from repro.platform import get_platform

    spec = make_spec()
    cell = next(iter(spec.cells()))
    keys = {cell_cache_key(spec, cell)}
    for name in ("desktop-1x8", "epyc-2x64", "hybrid-4p8e"):
        keys.add(cell_cache_key(make_spec(platform=get_platform(name)), cell))
    assert len(keys) == 4


def test_string_platform_resolves_to_its_spec():
    """A preset name is a platform designator like any other: the spec
    holds the resolved PlatformSpec, so its cells key and run on it."""
    from repro.campaign.engine import run_campaign
    from repro.platform import get_platform

    desktop = get_platform("desktop-1x8")
    named = CampaignSpec(
        benchmarks=("fib",),
        runtimes=("hpx",),
        core_counts=(2,),
        samples=1,
        preset="small",
        platform="desktop-1x8",
    )
    assert named.platform == desktop
    assert named == dataclasses.replace(named, platform=desktop)
    run = run_campaign(named)
    assert run.stats.executed == 1 and run.stats.aborted == 0
    (cell,) = run.artifact.cells
    assert cell.key == cell_cache_key(dataclasses.replace(named, platform=desktop), cell.cell)
    assert run.artifact.environment["machine_spec"] == "desktop-1x8"
    assert run.artifact.spec.platform == desktop
