"""Run request validation, campaign cache-key interchange, queue bounds."""

from __future__ import annotations

import asyncio

import pytest

from repro.campaign.spec import CampaignSpec, cell_cache_key
from repro.serve.queue import (
    DEFAULT_SEED,
    BadRequest,
    QueueFull,
    RunQueue,
    RunRecord,
    RunRequest,
)


def record(run_id: str = "r-1") -> RunRecord:
    request = RunRequest(benchmark="fib")
    return RunRecord(id=run_id, tenant="t", request=request, key="k" * 64)


# -- validation --------------------------------------------------------------


def test_minimal_request_defaults():
    request = RunRequest.from_json({"benchmark": "fib"})
    assert request.runtime == "hpx"
    assert request.cores == 1
    assert request.preset == "default"
    assert request.seed == DEFAULT_SEED
    assert request.collect_counters is True


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("not a dict", "JSON object"),
        ({}, "unknown workload"),
        ({"benchmark": "nope"}, "unknown workload"),
        ({"benchmark": "fib", "workload": "fib"}, "not both"),
        ({"workload": "fib:bogus"}, "bad workload"),
        ({"workload": {"name": "fib", "extra": 1}}, "bad workload"),
        ({"workload": 7}, "bad workload"),
        ({"workload": "fib", "params": {"zzz": 1}}, "unknown parameters"),
        ({"benchmark": "fib", "runtime": "tbb"}, "unknown runtime"),
        ({"benchmark": "fib", "cores": 0}, "cores"),
        ({"benchmark": "fib", "cores": True}, "cores"),
        ({"benchmark": "fib", "preset": "huge"}, "unknown preset"),
        ({"benchmark": "fib", "params": [1]}, "params"),
        ({"benchmark": "fib", "seed": "x"}, "seed"),
        ({"benchmark": "fib", "platform": "pdp11"}, "unknown platform"),
        ({"benchmark": "fib", "platform": "/etc/passwd"}, "unknown platform"),
        ({"benchmark": "fib", "collect_counters": 1}, "collect_counters"),
        ({"benchmark": "fib", "frobnicate": 1}, "unknown fields"),
        # Runs that could only fail in a worker are refused up front.
        ({"benchmark": "fib", "cores": 64}, "bindable cores"),
        ({"workload": "fib:n=5", "cores": 21}, "bindable cores"),
        ({"workload": "sort", "mode": "cohort"}, "no cohort plan"),
        ({"benchmark": "fib", "params": {"n": "abc"}}, "parameter 'n' of fib takes int"),
        ({"benchmark": "uts", "params": {"seed": 5}}, "root seed"),
        ({"workload": "sort:cutoff=0"}, "parameter 'cutoff' of sort must be at least 1"),
        ({"workload": "pyramids:chunk=0"}, "parameter 'chunk' of pyramids must be at least 1"),
        ({"benchmark": "round", "params": {"players": 1}}, "'players' of round must be at least 2"),
    ],
)
def test_invalid_bodies_name_the_problem(body, fragment):
    with pytest.raises(BadRequest, match=fragment):
        RunRequest.from_json(body)


# -- the cache-key interchange guarantee -------------------------------------


def test_cache_key_is_the_campaign_cell_key():
    """A server run and the equivalent campaign cell share one key,
    which is what makes the shared ResultCache interchange."""
    request = RunRequest.from_json(
        {"benchmark": "fib", "runtime": "std", "cores": 4, "params": {"n": 12}, "seed": 7}
    )
    spec = CampaignSpec(
        benchmarks=("fib",),
        runtimes=("std",),
        core_counts=(4,),
        samples=1,
        seed=7,
        params={"n": 12},
    )
    cell = next(spec.cells())
    assert request.cache_key() == cell_cache_key(spec, cell)


#: Request bodies beside the one-cell campaign each is equivalent to.
EQUIVALENT_CELLS = {
    "cohort": (
        {"workload": "fib", "mode": "cohort", "cores": 4},
        {"benchmarks": ("fib",), "core_counts": (4,), "params": {"mode": "cohort"}},
    ),
    "std": (
        {"benchmark": "sort", "runtime": "std", "cores": 2},
        {"benchmarks": ("sort",), "runtimes": ("std",), "core_counts": (2,)},
    ),
    "preset": (
        {"benchmark": "uts", "preset": "small"},
        {"benchmarks": ("uts",), "preset": "small"},
    ),
    "platform": (
        {"benchmark": "fib", "platform": "desktop-1x8", "collect_counters": False},
        {"benchmarks": ("fib",), "platform": "desktop-1x8", "counters": ()},
    ),
}


@pytest.mark.parametrize("body,campaign", EQUIVALENT_CELLS.values(), ids=EQUIVALENT_CELLS.keys())
def test_a_request_lowers_to_its_campaign_cells_run(body, campaign):
    spec = CampaignSpec(**{"runtimes": ("hpx",), "core_counts": (1,), "samples": 1, **campaign})
    cell = next(spec.cells())
    request = RunRequest.from_json(body)
    assert request.spec == spec.run_spec(cell)
    assert request.cache_key() == cell_cache_key(spec, cell)


def test_workload_field_equivalent_to_benchmark_field():
    legacy = RunRequest.from_json({"benchmark": "fib", "params": {"n": 12}})
    spelled = RunRequest.from_json({"workload": "fib:n=12"})
    objected = RunRequest.from_json({"workload": {"name": "fib", "params": {"n": 12}}})
    assert legacy == spelled == objected
    assert legacy.cache_key() == spelled.cache_key() == objected.cache_key()


def test_request_params_overlay_workload_params():
    request = RunRequest.from_json({"workload": "fib:n=12", "params": {"n": 9}})
    assert request.params == {"n": 9}


def test_every_spelling_of_one_workload_shares_one_cache_key():
    """The acceptance guarantee: a campaign matrix entry, the legacy
    serve body, and the workload-spec serve body all hash to one cell."""
    spec = CampaignSpec(
        benchmarks=("taskbench:shape=fft,steps=4,width=8",),
        runtimes=("hpx",),
        core_counts=(2,),
        samples=1,
    )
    cell_key = cell_cache_key(spec, next(spec.cells()))
    params = {"shape": "fft", "width": 8, "steps": 4}
    bodies = [
        {"benchmark": "taskbench", "cores": 2, "params": params},
        {"workload": "taskbench:shape=fft,width=8,steps=4", "cores": 2},
        {"workload": {"name": "taskbench", "params": params}, "cores": 2},
    ]
    for body in bodies:
        assert RunRequest.from_json(body).cache_key() == cell_key


def test_cache_key_varies_with_inputs():
    base = RunRequest.from_json({"benchmark": "fib"})
    assert base.cache_key() == RunRequest.from_json({"benchmark": "fib"}).cache_key()
    for variant in (
        {"benchmark": "fib", "cores": 2},
        {"benchmark": "fib", "runtime": "std"},
        {"benchmark": "fib", "params": {"n": 9}},
        {"benchmark": "fib", "seed": 1},
        {"benchmark": "fib", "platform": "desktop-1x8"},
        {"benchmark": "sort"},
    ):
        assert RunRequest.from_json(variant).cache_key() != base.cache_key()


def test_campaign_run_is_a_server_cache_hit(tmp_path):
    """A cell executed by ``repro campaign`` satisfies the equivalent
    ``POST /runs`` body straight from the shared result cache."""
    from repro.campaign.cache import ResultCache
    from repro.campaign.engine import run_campaign

    spec = CampaignSpec(
        benchmarks=("taskbench:grain_ns=500,shape=trivial,steps=2,width=4",),
        runtimes=("hpx",),
        core_counts=(2,),
        samples=1,
    )
    cache = ResultCache(tmp_path / "cache")
    run_campaign(spec, cache=cache)
    request = RunRequest.from_json(
        {
            "workload": "taskbench:shape=trivial,width=4,steps=2,grain_ns=500",
            "cores": 2,
        }
    )
    assert cache.load(request.cache_key()) is not None


# -- the bounded queue -------------------------------------------------------


def test_queue_rejects_beyond_capacity():
    async def go():
        queue = RunQueue(capacity=2)
        queue.submit(record("r-1"))
        queue.submit(record("r-2"))
        assert queue.depth == 2
        with pytest.raises(QueueFull):
            queue.submit(record("r-3"))
        first = await queue.get()
        assert first.id == "r-1"  # FIFO
        queue.submit(record("r-3"))  # drained one slot -> admissible again

    asyncio.run(go())


def test_queue_capacity_validation():
    with pytest.raises(ValueError):
        RunQueue(capacity=0)
