"""Event-stream recording: capture a run's exact queue dynamics.

:class:`RecordingEngine` wraps a discrete-event engine and notes every
scheduled delay, grouped by the event whose callback scheduled it
(group 0 is pre-run setup).  Dispatch order is deterministic, so the
``(groups, delays)`` pair is a complete, replayable transcript of the
run's event-queue behaviour: two runs are *bit-identical* at the event
level iff their transcripts are equal.

This is the oracle behind two gates:

- :func:`replay_stream` replays transcripts with no-op callbacks to
  time the event core alone: the CI replay-ratio step compares the
  current engine against the legacy heap oracle this way, and the
  end-to-end benchmark reports it as ``simcore.events.replay_eps``;
- the golden-stream tests (``tests/test_golden_streams.py``) compare
  fresh transcripts of reference runs against committed fixtures, so a
  scheduler/interpreter refactor cannot silently change semantics.
"""

from __future__ import annotations

import gzip
import json
from array import array
from pathlib import Path
from typing import Any, Callable

Callback = Callable[..., Any]

STREAM_SCHEMA = "repro-event-stream/1"


class RecordingEngine:
    """Engine wrapper noting every scheduled delay by dispatching event.

    ``groups[i]``/``delays[i]`` pairs say "the *i*-th dispatched event
    scheduled a new event ``delays[i]`` ns ahead" (group 0 is the
    pre-run setup).  Dispatch order is deterministic, so the pairs are
    produced — and can be replayed — in non-decreasing group order.
    """

    def __init__(self, factory: Callable[[], Any] | None = None) -> None:
        if factory is None:
            from repro.simcore.events import Engine

            factory = Engine
        self._engine = factory()
        self.dispatched = 0  # events fired so far (own count: the engine
        # batches its public counter and only flushes it after run())
        self.groups: array = array("q")
        self.delays: array = array("q")

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)

    def _wrap(self, callback: Callback) -> Callback:
        def fired(*args: Any) -> Any:
            self.dispatched += 1
            return callback(*args)

        return fired

    def _note(self, delay: int) -> None:
        self.groups.append(self.dispatched)
        self.delays.append(delay)

    def call_later(self, delay: int, callback: Callback, *args: Any) -> None:
        self._note(delay)
        self._engine.call_later(delay, self._wrap(callback), *args)

    def call_at(self, time_: int, callback: Callback, *args: Any) -> None:
        self._note(time_ - self._engine.now)
        self._engine.call_at(time_, self._wrap(callback), *args)

    def schedule(self, delay: int, callback: Callback, *args: Any) -> Any:
        self._note(delay)
        return self._engine.schedule(delay, self._wrap(callback), *args)

    def schedule_at(self, time_: int, callback: Callback, *args: Any) -> Any:
        self._note(time_ - self._engine.now)
        return self._engine.schedule_at(time_, self._wrap(callback), *args)


def replay_stream(
    groups: array, delays: array, factory: Callable[[], Any]
) -> tuple[Any, int, int]:
    """Replay a recorded delay stream with no-op callbacks.

    Reproduces the recorded run's exact (time, seq) queue dynamics —
    the engine under test does all the same pushes and pops, only the
    simulation work inside each callback is gone.  Returns
    ``(engine, now, events_processed)``.
    """
    engine = factory()
    call_later = engine.call_later
    n = len(groups)
    state = [0, 0]  # dispatched count, stream cursor

    def fire(_arg: int) -> None:
        k = state[0] + 1
        state[0] = k
        c = state[1]
        while c < n and groups[c] == k:
            call_later(delays[c], fire, k)
            c += 1
        state[1] = c

    c = 0
    while c < n and groups[c] == 0:
        call_later(delays[c], fire, 0)
        c += 1
    state[1] = c
    engine.run()
    return engine, engine.now, engine.events_processed


# -- fixture (de)serialisation ---------------------------------------------


def save_stream(
    path: str | Path,
    *,
    groups: array,
    delays: array,
    meta: dict[str, Any],
) -> None:
    """Write a gzipped JSON stream fixture (transcript + run metadata)."""
    payload = {
        "schema": STREAM_SCHEMA,
        **meta,
        "groups": list(groups),
        "delays": list(delays),
    }
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    with gzip.open(Path(path), "wb", compresslevel=9) as fh:
        fh.write(raw)


def load_stream(path: str | Path) -> dict[str, Any]:
    """Load a fixture written by :func:`save_stream`.

    ``groups``/``delays`` come back as ``array('q')``; everything else
    as plain JSON values.
    """
    with gzip.open(Path(path), "rb") as fh:
        payload = json.loads(fh.read())
    if payload.get("schema") != STREAM_SCHEMA:
        raise ValueError(f"{path}: not a {STREAM_SCHEMA} fixture")
    payload["groups"] = array("q", payload["groups"])
    payload["delays"] = array("q", payload["delays"])
    return payload
