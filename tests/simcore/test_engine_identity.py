"""Engine identity: the fast-path core and the legacy heap oracle agree.

A full simulation driven through :class:`repro.api.Session` once per
engine (via ``engine_factory``) must produce bit-identical simulated
results — same ``exec_time_ns``, event count, counter values and task
counts — and a recorded event stream must replay to the recorded final
clock and event count on both engines.  This is the determinism
contract that makes the campaign cache and the regression gates sound,
and the property the CI replay-ratio timing rests on.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.simcore.events import Engine
from repro.simcore.record import RecordingEngine, replay_stream
from repro.workloads import WorkloadSpec

from tests.simcore.legacy_engine import LegacyEngine


def _run_fib(factory, *, n, cores, platform=None):
    session = Session(runtime="hpx", cores=cores, platform=platform, engine_factory=factory)
    return session.run(WorkloadSpec.parse("fib"), params={"n": n})


@pytest.mark.parametrize("platform", ["ivybridge-2x10", "epyc-2x64"])
def test_fib20_identical_artifacts_on_both_engines(platform):
    """fib(20) on hpx/8 produces bit-identical simulated results
    (timestamps, counter values, task counts) on the fast-path engine
    and the legacy heap engine, on the default node and on a
    non-default preset."""
    new = _run_fib(Engine, n=20, cores=8, platform=platform)
    legacy = _run_fib(LegacyEngine, n=20, cores=8, platform=platform)
    assert new.verified and legacy.verified
    assert new.exec_time_ns == legacy.exec_time_ns
    assert new.engine_events == legacy.engine_events
    assert new.counters == legacy.counters
    assert new.tasks_executed == legacy.tasks_executed


def test_recorded_stream_replays_identically_on_both_engines():
    """A recorded stream replayed with no-op callbacks reproduces the
    run's final clock and event count on both engines."""
    recorder = RecordingEngine()
    recorded = _run_fib(lambda: recorder, n=12, cores=4)
    assert recorded.verified
    for factory in (Engine, LegacyEngine):
        _, now, events = replay_stream(recorder.groups, recorder.delays, factory)
        assert (now, events) == (recorded.exec_time_ns, recorded.engine_events)
