"""Two-tier queue vs legacy heap: identical (time, seq) semantics.

Seeded randomized workloads (no Hypothesis needed — plain
``random.Random``) drive the new calendar-ring queue and the verbatim
pre-optimisation binary heap side by side and require identical pop
order, identical fire order, and identical final clocks.  This is the
determinism contract the campaign cache and the regression gates rely
on.
"""

from __future__ import annotations

import random

from repro.simcore.events import RING_SLOTS, Engine, EventQueue
from tests.simcore.legacy_engine import LegacyEngine, LegacyEventQueue

SEEDS = (0, 1, 20160523)


def _random_workload(rng: random.Random, size: int) -> list[tuple[str, int]]:
    """A mix of pushes (near, tie-heavy, and far beyond the ring) and
    cancels of random outstanding handles."""
    ops: list[tuple[str, int]] = []
    for _ in range(size):
        roll = rng.random()
        if roll < 0.55:
            ops.append(("push", rng.randrange(0, 64)))  # near future, many ties
        elif roll < 0.75:
            ops.append(("push", rng.randrange(0, RING_SLOTS * 3)))  # heap spillover
        elif roll < 0.9:
            ops.append(("cancel", rng.randrange(1 << 30)))
        else:
            ops.append(("pop", 0))
    return ops


def test_queue_pop_order_matches_legacy_across_random_workloads():
    for seed in SEEDS:
        rng = random.Random(seed)
        ops = _random_workload(rng, 400)
        new_q, old_q = EventQueue(), LegacyEventQueue()
        new_handles, old_handles = [], []
        popped_new, popped_old = [], []
        for op, value in ops:
            if op == "push":
                new_handles.append(new_q.push(value, lambda: None))
                old_handles.append(old_q.push(value, lambda: None))
            elif op == "cancel" and new_handles:
                index = value % len(new_handles)
                new_handles[index].cancel()
                old_handles[index].cancel()
            elif op == "pop":
                new_event = new_q.pop()
                old_event = old_q.pop()
                assert (new_event is None) == (old_event is None)
                if new_event is not None:
                    popped_new.append((new_event.time, new_event.seq))
                    popped_old.append((old_event.time, old_event.seq))
        drained: list[tuple[int, int]] = []
        while True:
            new_event = new_q.pop()
            old_event = old_q.pop()
            assert (new_event is None) == (old_event is None)
            if new_event is None:
                break
            popped_new.append((new_event.time, new_event.seq))
            popped_old.append((old_event.time, old_event.seq))
            drained.append(popped_new[-1])
        assert popped_new == popped_old
        # Once pushes stop, the drain is globally (time, seq)-sorted.
        # (The interleaved phase need not be: a push can introduce a
        # time earlier than one already popped.)
        assert drained == sorted(drained)
        assert len(new_q) == len(old_q) == 0


def test_peek_time_matches_legacy_under_cancellation():
    for seed in SEEDS:
        rng = random.Random(seed)
        new_q, old_q = EventQueue(), LegacyEventQueue()
        handles = []
        for _ in range(200):
            t = rng.randrange(0, RING_SLOTS * 2)
            handles.append((new_q.push(t, lambda: None), old_q.push(t, lambda: None)))
        rng.shuffle(handles)
        for new_h, old_h in handles[: len(handles) // 2]:
            new_h.cancel()
            old_h.cancel()
        assert new_q.peek_time() == old_q.peek_time()
        assert len(new_q) == len(old_q)


def test_engine_fire_order_matches_legacy_with_nested_scheduling():
    """Full engine runs: randomized cascading events (each firing may
    schedule more, including zero-delay ties and far-future spills)
    fire in the same order at the same times on both engines."""
    for seed in SEEDS:

        def drive(engine_cls):
            rng = random.Random(seed)
            engine = engine_cls()
            fired: list[tuple[int, int]] = []

            def body(tag: int) -> None:
                fired.append((tag, engine.now))
                for _ in range(rng.randrange(0, 3)):
                    delay = rng.choice((0, 1, 7, 50, RING_SLOTS + 13))
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
    q = EventQueue()
    handles = [q.push(i % 5, lambda: None) for i in range(100)]
    assert len(q) == 100
    for handle in handles[:60]:
        handle.cancel()
    assert len(q) == 40  # O(1) live count excludes tombstones
    for handle in handles[:60]:
        handle.cancel()  # double-cancel must not double-count
    assert len(q) == 40
