"""RunSpec: one description per run, keyed by construction.

Every input that can change a byte of a run's result is a field, and
every field reaches the key; what only watches a run (engine factory,
sinks, ``on_sample``, ``keep_result``, ``keep_events``) changes neither
the run nor its key.
"""

import dataclasses
import io

import pytest

from repro import api
from repro.api import ProfileConfig, RunResult, RunSpec, Session, TelemetryConfig, WorkloadSpec
from repro.campaign.spec import CampaignSpec, cell_cache_key
from repro.inncabs.base import Benchmark
from repro.profiler.whatif import WhatIfSpec
from repro.runtime.config import HpxParams
from repro.simcore.record import RecordingEngine
from repro.telemetry.sinks import JsonLinesSink

BASE = RunSpec("fib", {"n": 12, "seed": 7}, cores=2)

#: One changed value per RunSpec field.
VARIANTS = {
    "workload": "uts",
    "params": {"n": 13, "seed": 7},
    "runtime": "std",
    "cores": 4,
    "platform": "epyc-2x64",
    "costs": HpxParams(task_create_ns=1),
    "mode": "cohort",
    "counters": (),
    "interval_ns": 10_000,
    "buffer_limit": 10,
    "profile": True,
    "what_if": (WhatIfSpec("fib", 50.0),),
}


def test_every_field_reaches_the_key():
    assert set(VARIANTS) == {f.name for f in dataclasses.fields(RunSpec)}
    keys = {BASE.key()}
    for name, value in VARIANTS.items():
        changed = dataclasses.replace(BASE, **{name: value})
        assert changed.key() != BASE.key(), name
        keys.add(changed.key())
    assert len(keys) == len(VARIANTS) + 1


def test_a_source_edit_changes_the_key(monkeypatch):
    before = BASE.key()
    monkeypatch.setattr(api, "source_digest", lambda: "0" * 64)
    assert BASE.key() != before


def test_spellings_of_one_run_share_one_spec():
    """Mode as a param or a field, /profiler counters or profile=True."""
    assert RunSpec("fib", {"n": 12, "mode": "cohort"}) == RunSpec("fib", {"n": 12}, mode="cohort")
    profiler = ("/profiler{locality#0/total}/work-ns",)
    assert RunSpec("fib", counters=profiler) == RunSpec("fib", counters=profiler, profile=True)
    assert RunSpec("fib", what_if=VARIANTS["what_if"]).profile


def test_session_and_campaign_cell_share_one_key():
    session_spec = Session(runtime="hpx", cores=2).spec(
        WorkloadSpec.parse("fib:n=12"), params={"seed": 20160523}
    )
    campaign = CampaignSpec(
        benchmarks=("fib:n=12",), runtimes=("hpx",), core_counts=(2,), samples=1
    )
    cell = next(campaign.cells())
    assert campaign.run_spec(cell) == session_spec
    assert cell_cache_key(campaign, cell) == session_spec.key()


@pytest.mark.parametrize(
    "spec,fragment",
    [
        (RunSpec("fib", runtime="tbb"), "unknown runtime"),
        (RunSpec("fib", runtime="std", costs=HpxParams()), "cost model"),
        (RunSpec("fib", cores=21), "bindable cores"),
        (RunSpec("fib", cores=True), "positive integer"),
        (RunSpec("nope"), "unknown workload"),
        (RunSpec("fib", {"nn": 3}), "unknown parameters"),
        (RunSpec("fib", {"seed": "x"}), "seed"),
        (RunSpec("sort", mode="cohort"), "no cohort plan"),
        (RunSpec("fib", mode="cohort", profile=True), "exact-mode only"),
        (RunSpec("fib", counters=("threads/idle-rate",)), "threads/idle-rate"),
        (RunSpec("fib", counters=(), interval_ns=1000), "periodic queries need counters"),
        (RunSpec("fib", interval_ns=0), "interval_ns"),
        (RunSpec("fib", buffer_limit=0), "buffer_limit"),
        (RunSpec("fib", interval_ns=10_000.0), "interval_ns"),
        (RunSpec("fib", interval_ns=True), "interval_ns"),
        (RunSpec("fib", buffer_limit=10.0), "buffer_limit"),
        (RunSpec("fib", buffer_limit=True), "buffer_limit"),
    ],
)
def test_validate_names_the_problem(spec, fragment):
    with pytest.raises(ValueError, match=fragment):
        spec.validate()


def test_session_run_checks_the_parameters_once(monkeypatch):
    calls = []
    check = Benchmark.params_with_defaults

    def spy(self, params):
        calls.append(dict(params))
        return check(self, params)

    monkeypatch.setattr(Benchmark, "params_with_defaults", spy)
    result = Session(runtime="hpx", cores=2).run(WorkloadSpec.parse("fib:n=8"))
    assert result.verified
    assert calls == [{"n": 8}]


def test_what_if_pairs_become_specs():
    pair = RunSpec("fib", {"n": 8}, what_if=(("fib", 50),))
    spec = RunSpec("fib", {"n": 8}, what_if=(WhatIfSpec("fib", 50),))
    assert pair == spec and pair.key() == spec.key()
    profile = Session().run(pair).profile
    assert [(w.body, w.speedup_pct) for w in profile.what_if] == [("_fib_task", 50)]


def test_equal_specs_get_equal_keys():
    """A what-if speedup has one spelling: 50 and 50.0 are one run."""
    ints = RunSpec("fib", {"n": 8}, what_if=(WhatIfSpec("fib", 50),))
    floats = RunSpec("fib", {"n": 8}, what_if=(WhatIfSpec("fib", 50.0),))
    assert ints == floats and ints.key() == floats.key()


@pytest.mark.parametrize(
    "entry,fragment",
    [
        ("fib", "WhatIfSpec or a"),
        (("fib",), "WhatIfSpec or a"),
        (("fib", "50"), "WhatIfSpec or a"),
        ((50, "fib"), "WhatIfSpec or a"),
        (("fib", True), "WhatIfSpec or a"),
        (("fib", 150.0), "between 0 and 100"),
    ],
)
def test_bad_what_if_entries_are_refused_before_any_run(entry, fragment):
    with pytest.raises(ValueError, match=fragment):
        RunSpec("fib", what_if=(entry,))


def test_a_runspec_describes_the_whole_run():
    with pytest.raises(TypeError, match="RunSpec"):
        Session().run(BASE, cores=4)


def test_observers_change_neither_the_run_nor_its_key():
    workload = WorkloadSpec.parse("fib:n=12")
    samples = []
    observers = {
        "none": {},
        "engine_factory": {"engine_factory": RecordingEngine},
        "sink": {"sinks": (JsonLinesSink(io.StringIO()),)},
        "on_sample": {"on_sample": samples.append},
        "keep_result": {"keep_result": True},
        "keep_events": {"keep_events": True},
    }
    outcomes, keys = {}, set()
    for name, observer in observers.items():
        session = Session(runtime="hpx", cores=2, engine_factory=observer.get("engine_factory"))
        telemetry = TelemetryConfig(interval_ns=10_000, sinks=observer.get("sinks", ()))
        profile = ProfileConfig(keep_events=observer.get("keep_events", False))
        result = session.run(
            workload,
            telemetry=telemetry,
            profile=profile,
            on_sample=observer.get("on_sample"),
            keep_result=observer.get("keep_result", False),
        )
        outcomes[name] = (
            result.counters,
            result.telemetry.to_rows(),
            result.profile.to_json_dict(include_series=True),
            result.exec_time_ns,
        )
        keys.add(session.spec(workload, telemetry=telemetry, profile=profile).key())
    assert samples  # the callback saw the periodic evaluations
    assert len(outcomes["none"][1]) > len(outcomes["none"][0])  # periodic rows + final
    assert all(outcome == outcomes["none"] for outcome in outcomes.values())
    assert len(keys) == 1


# -- RunResult: the result's JSON form ----------------------------------------

ROUND_TRIPS = {
    "profiled-10us": RunSpec("fib", {"n": 10}, cores=2, interval_ns=10_000, profile=True),
    "std-abort": RunSpec("fib", {"n": 19}, runtime="std", cores=4),
    "cohort": RunSpec("fib", {"n": 20}, cores=4, mode="cohort"),
    "no-counters": RunSpec("fib", {"n": 8}, counters=()),
}


def _comparable(result, name):
    value = getattr(result, name)
    if name == "telemetry" and value is not None:
        return value.samples
    if name == "profile" and value is not None and not isinstance(value, dict):
        return value.to_json_dict()  # a reloaded profile is its summary
    return value


@pytest.mark.parametrize("spec", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
def test_a_result_round_trips_through_its_json(spec):
    """Every field but ``result`` comes back, the workload named as the live run names it."""
    result = Session().run(spec)
    assert result.aborted == (spec.runtime == "std")
    restored = RunResult.from_json(result.to_json(), spec)
    assert restored.benchmark == "fib"
    for name in (f.name for f in dataclasses.fields(RunResult) if f.name != "result"):
        assert _comparable(restored, name) == _comparable(result, name), name
    assert restored.to_json() == result.to_json()

