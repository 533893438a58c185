"""Event core vs legacy heap: identical (time, seq) semantics.

Seeded randomized workloads (no Hypothesis needed — plain
``random.Random``) drive the current engine and the verbatim
pre-optimisation binary heap side by side and require identical fire
order, identical live counts and identical final clocks.  This is the
determinism contract the campaign cache and the regression gates rely
on.

A "pop" here is one ``run()`` whose first live event stops the engine:
it fires exactly the earliest live event, skipping cancelled ones.
"""

from __future__ import annotations

import random

import pytest

from repro.simcore.events import Engine
from tests.simcore.legacy_engine import LegacyEngine

SEEDS = (0, 1, 20160523)

#: A far-future delay: thousands of nanoseconds ahead, beyond every
#: scheduler primitive (those cost 50–3000 ns).
FAR_NS = 8192


def _random_workload(rng: random.Random, size: int) -> list[tuple[str, int]]:
    """A mix of pushes (near, tie-heavy, and far future) and cancels of
    random outstanding handles."""
    ops: list[tuple[str, int]] = []
    for _ in range(size):
        roll = rng.random()
        if roll < 0.55:
            ops.append(("push", rng.randrange(0, 64)))  # near future, many ties
        elif roll < 0.75:
            ops.append(("push", rng.randrange(0, FAR_NS * 3)))  # far future
        elif roll < 0.9:
            ops.append(("cancel", rng.randrange(1 << 30)))
        else:
            ops.append(("pop", 0))
    return ops


def _stopping(engine, fired: list[tuple[int, int]], tag: int):
    """A callback that records ``(now, tag)`` and ends the current run."""

    def fire() -> None:
        fired.append((engine.now, tag))
        engine.stop()

    return fire


def test_queue_pop_order_matches_legacy_across_random_workloads():
    for seed in SEEDS:
        ops = _random_workload(random.Random(seed), 400)
        new, old = Engine(), LegacyEngine()
        handles: list[tuple[object, object]] = []
        fired_new: list[tuple[int, int]] = []
        fired_old: list[tuple[int, int]] = []
        for op, value in ops:
            if op == "push":
                tag = len(handles)
                handles.append(
                    (
                        new.schedule(value, _stopping(new, fired_new, tag)),
                        old.schedule(value, _stopping(old, fired_old, tag)),
                    )
                )
            elif op == "cancel" and handles:
                for handle in handles[value % len(handles)]:
                    handle.cancel()
            elif op == "pop":
                new.run()
                old.run()
                assert fired_new == fired_old
                assert new.pending_events == old.pending_events
        popped = len(fired_new)
        while new.pending_events:
            new.run()
            old.run()
        assert fired_new == fired_old
        # Once pushes stop, the drain is globally (time, seq)-sorted
        # (a tag is its event's push order).
        drained = fired_new[popped:]
        assert drained == sorted(drained)
        assert new.pending_events == old.pending_events == 0
        assert (new.now, new.events_processed) == (old.now, old.events_processed)


def test_peek_time_matches_legacy_under_cancellation():
    """After cancelling a random half, the next event to fire is the
    legacy queue's ``peek_time`` on both engines."""
    for seed in SEEDS:
        rng = random.Random(seed)
        new, old = Engine(), LegacyEngine()
        fired_new: list[tuple[int, int]] = []
        fired_old: list[tuple[int, int]] = []
        handles = []
        for tag in range(200):
            t = rng.randrange(0, FAR_NS * 2)
            handles.append(
                (
                    new.schedule_at(t, _stopping(new, fired_new, tag)),
                    old.schedule_at(t, _stopping(old, fired_old, tag)),
                )
            )
        rng.shuffle(handles)
        for new_h, old_h in handles[: len(handles) // 2]:
            new_h.cancel()
            old_h.cancel()
        assert new.pending_events == old.pending_events == 100
        next_time = old._queue.peek_time()
        new.run()
        old.run()
        assert fired_new == fired_old
        assert new.now == old.now == next_time
        assert new.pending_events == old.pending_events == 99


def test_engine_fire_order_matches_legacy_with_nested_scheduling():
    """Full engine runs: randomized cascading events (each firing may
    schedule more, including zero-delay ties and far-future pushes)
    fire in the same order at the same times on both engines."""
    for seed in SEEDS:

        def drive(engine_cls):
            rng = random.Random(seed)
            engine = engine_cls()
            fired: list[tuple[int, int]] = []

            def body(tag: int) -> None:
                fired.append((tag, engine.now))
                for _ in range(rng.randrange(0, 3)):
                    delay = rng.choice((0, 1, 7, 50, FAR_NS + 13))
                    engine.call_later(delay, body, rng.randrange(1 << 20))
                if rng.random() < 0.2:
                    handle = engine.schedule(rng.randrange(1, 40), body, -tag)
                    if rng.random() < 0.5:
                        handle.cancel()

            for tag in range(30):
                engine.schedule(rng.randrange(0, 100), body, tag)
            engine.run(until=40_000)  # bound the cascade
            return fired, engine.now, engine.events_processed

        new = drive(Engine)
        legacy = drive(LegacyEngine)
        assert new == legacy


def test_len_is_live_count_not_heap_size():
    engine = Engine()
    handles = [engine.schedule_at(i % 5, lambda: None) for i in range(100)]
    assert engine.pending_events == 100
    for handle in handles[:60]:
        handle.cancel()
    assert engine.pending_events == 40  # O(1) live count excludes cancelled events
    for handle in handles[:60]:
        handle.cancel()  # double-cancel must not double-count
    assert engine.pending_events == 40
    engine.run()
    assert engine.pending_events == 0
    assert engine.events_processed == 40


# -- stop, raise, until, timers and zero delay: segment by segment -------------


class _Boom(Exception):
    """What a callback raises in the ``raise`` case."""


def _drive_segments(engine_cls, case: str, seed: int) -> list[tuple]:
    """Run one seeded cascade on *engine_cls* in ``run(until=t)``
    segments, and return one observation per segment: the fire order
    so far, ``now``, ``events_processed``, ``pending_events`` and the
    stop reason.

    Every engine draws from its own ``random.Random(seed)`` in fire
    order, so two engines that fire alike draw alike.  *case* picks what
    the callbacks do besides scheduling more events:

    - ``stop``: one in eight calls ``engine.stop()``, mostly in the middle
      of a timestamp (the cascade is tie-heavy);
    - ``raise``: one in ten raises, and the driver runs again;
    - ``until``: segments end at times that several events share;
    - ``timers``: half the pushes are :meth:`schedule` handles,
      callbacks and the driver cancel or reschedule random handles,
      pending or already fired, and callbacks stop the engine as in
      ``stop``, so handles outlive the runs that queued them;
    - ``zero_delay``: most pushes are at ``now``, through ``call_later(0)``
      and ``call_at(now)``.

    Between segments the driver schedules a few events at ``now`` and
    ``now + 1``: they must fire after everything already queued for
    those times.
    """
    rng = random.Random(seed)
    engine = engine_cls()
    fired: list[tuple[int, int]] = []
    handles: list[list] = []  # [handle, tag]; fired handles stay listed
    budget = [600]  # pushes and timer moves left: bounds the cascade
    segments: list[tuple] = []

    def push(delay: int, tag: int) -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        if case == "timers" and rng.random() < 0.5:
            handles.append([engine.schedule(delay, body, tag), tag])
        elif case == "zero_delay" and rng.random() < 0.5:
            engine.call_at(engine.now + delay, body, tag)
        else:
            engine.call_later(delay, body, tag)

    def move_a_timer() -> None:
        if not handles or budget[0] <= 0:
            return
        budget[0] -= 1
        entry = rng.choice(handles)
        handle, tag = entry
        if rng.random() < 0.5:
            handle.cancel()
            return
        at = engine.now + rng.choice((0, 1, 3))
        if isinstance(engine, Engine):
            handle.reschedule(at=at)
        else:  # the legacy handle has no reschedule: cancel plus a fresh push
            handle.cancel()
            entry[0] = engine.schedule_at(at, body, tag)

    def body(tag: int) -> None:
        fired.append((tag, engine.now))
        for _ in range(rng.randrange(3)):
            if case == "zero_delay" and rng.random() < 0.7:
                delay = 0
            else:
                delay = rng.choice((0, 1, 2, 3, 40))
            push(delay, rng.randrange(1 << 20))
        if case == "timers":
            move_a_timer()
        if case in ("stop", "timers") and rng.random() < 0.125:
            engine.stop(f"stop at {tag}")
        elif case == "raise" and rng.random() < 0.1:
            raise _Boom(tag)

    for tag in range(40):
        push(rng.randrange(8), tag)  # five events per timestamp on average
    until = 0
    while engine.pending_events:
        assert len(segments) < 5000, "the cascade did not drain"
        try:
            engine.run(until=until)
        except _Boom:
            pass
        segments.append(
            (
                tuple(fired),
                engine.now,
                engine.events_processed,
                engine.pending_events,
                engine.stop_reason,
            )
        )
        for _ in range(rng.randrange(3)):
            push(rng.choice((0, 0, 1)), -len(segments))
        if case == "timers":
            move_a_timer()
        until += rng.choice((0, 1, 2))  # never behind now: run() stops at until
    return segments


@pytest.mark.parametrize("case", ["stop", "raise", "until", "timers", "zero_delay"])
@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_legacy_segment_by_segment(case, seed):
    new = _drive_segments(Engine, case, seed)
    legacy = _drive_segments(LegacyEngine, case, seed)
    for index, (got, want) in enumerate(zip(new, legacy)):
        assert got == want, f"{case}/{seed}: segment {index} differs"
    assert len(new) == len(legacy)
    assert len(new) > 3  # the cascade really ran in segments
