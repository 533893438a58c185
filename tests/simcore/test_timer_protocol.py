"""The Timer handle protocol: cancel / reschedule / active / cancelled.

Callers (schedulers, PeriodicQuery) program against this protocol
instead of reaching into queue internals, so its semantics are pinned
here.
"""

from __future__ import annotations

import pytest

from repro.simcore.events import Engine, SimulationError, Timer
from tests.simcore.legacy_engine import LegacyEngine


def test_schedule_returns_active_timer():
    engine = Engine()
    timer = engine.schedule(10, lambda: None)
    assert isinstance(timer, Timer)
    assert timer.active
    assert not timer.cancelled
    assert timer.time == 10
    assert timer.seq == 0


def test_cancel_tombstones_and_is_idempotent():
    engine = Engine()
    fired = []
    timer = engine.schedule(10, fired.append, 1)
    timer.cancel()
    assert not timer.active
    assert timer.cancelled
    timer.cancel()  # idempotent: no error, no double bookkeeping
    assert engine.pending_events == 0
    engine.run()
    assert fired == []


def test_fired_timer_reports_inactive():
    engine = Engine()
    timer = engine.schedule(5, lambda: None)
    engine.run()
    assert not timer.active
    assert timer.cancelled


def test_reschedule_moves_and_resequences():
    """Rescheduling takes a fresh sequence number: the moved event fires
    after anything already scheduled at its new timestamp."""
    engine = Engine()
    order = []
    timer = engine.schedule(5, order.append, "moved")
    engine.schedule(20, order.append, "resident")
    assert timer.reschedule(at=20) is timer
    assert timer.active
    assert timer.time == 20
    engine.run()
    assert order == ["resident", "moved"]
    assert engine.now == 20


def test_reschedule_by_delay_is_relative_to_now():
    engine = Engine()
    times = []
    timer = engine.schedule(100, lambda: times.append(engine.now))
    engine.schedule(30, lambda: timer.reschedule(delay=5))
    engine.run()
    assert times == [35]


def test_reschedule_rearms_a_fired_timer():
    engine = Engine()
    count = []
    timer = engine.schedule(5, count.append, 1)
    engine.run()
    assert not timer.active
    timer.reschedule(delay=7)
    assert timer.active
    engine.run()
    assert count == [1, 1]
    assert engine.now == 12


def test_reschedule_validation():
    engine = Engine()
    timer = engine.schedule(10, lambda: None)
    with pytest.raises(ValueError):
        timer.reschedule()  # neither
    with pytest.raises(ValueError):
        timer.reschedule(5, at=7)  # both
    with pytest.raises(SimulationError):
        timer.reschedule(delay=-1)
    engine.schedule(50, lambda: None)
    engine.run(until=20)
    with pytest.raises(SimulationError):
        timer.reschedule(at=engine.now - 1)  # in the past


def test_exhausted_budget_leaves_the_refused_event_queued():
    """The event past ``max_events`` is not dispatched: its handle stays
    active and the live count stays exact."""
    engine = Engine(max_events=1)
    first = engine.schedule(1, lambda: None)
    refused = engine.schedule(2, lambda: None)
    with pytest.raises(SimulationError, match="budget"):
        engine.run()
    assert (engine.now, engine.events_processed) == (1, 1)
    assert not first.active
    assert refused.active
    assert engine.pending_events == 1
    refused.cancel()
    assert engine.pending_events == 0


def test_event_alias_is_gone():
    # The deprecated _Event alias was removed; Timer is the only name.
    import repro.simcore.events as events

    assert not hasattr(events, "_Event")


def test_legacy_engine_handles_expose_active():
    engine = LegacyEngine()
    handle = engine.schedule(10, lambda: None)
    assert handle.active
    handle.cancel()
    assert not handle.active
    assert handle.cancelled
