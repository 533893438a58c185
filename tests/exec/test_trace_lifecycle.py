"""Both backends emit the same task life cycle on the probe bus.

The profiler measures a task's busy time between an ``activate`` and
the ``suspend`` or ``terminate`` that closes it, so every way a task
leaves its worker must close the interval: blocking on a future, an
``AwaitAll`` or a contended mutex, yielding, finishing, and failing.
"""

import pytest

from repro.kernel.scheduler import StdRuntime
from repro.profiler.builder import ProfileBuilder
from repro.profiler.events import TraceRecorder
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine

RUNTIMES = {"hpx": HpxRuntime, "std": StdRuntime}


def _profiled_run(runtime, body, *args, workers):
    rt = RUNTIMES[runtime](Engine(), Machine(), num_workers=workers)
    builder = ProfileBuilder(rt)
    recorder = TraceRecorder(rt)
    with builder, recorder:
        value = rt.run_to_completion(body, *args)
    return builder, recorder.events, value


def _raising_child(ctx):
    yield ctx.compute(5_000)
    raise ValueError("child failed")


def _catching_root(ctx):
    fut = yield ctx.async_(_raising_child)
    try:
        yield ctx.wait(fut)
    except ValueError:
        return "caught"
    return "missed"


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
def test_failing_task_terminates_and_keeps_its_busy_time(runtime):
    builder, events, value = _profiled_run(runtime, _catching_root, workers=2)
    assert value == "caught"
    activated = {e.tid for e in events if e.kind == "activate"}
    terminated = {e.tid for e in events if e.kind == "terminate"}
    assert activated <= terminated
    assert builder.active_count == 0
    assert builder.body_busy_ns("_raising_child") > 0


def _contender(ctx, mutex):
    yield ctx.lock(mutex)
    yield ctx.compute(20_000)
    yield ctx.unlock(mutex)
    yield ctx.yield_now()
    yield ctx.compute(1_000)
    return None


def _contending_root(ctx, tasks):
    mutex = ctx.new_mutex()
    futures = []
    for _ in range(tasks):
        futures.append((yield ctx.async_(_contender, mutex)))
    yield ctx.wait_all(futures)
    return None


@pytest.mark.parametrize("runtime", sorted(RUNTIMES))
def test_every_activation_is_closed_before_the_next(runtime):
    workers = 4
    builder, events, _ = _profiled_run(runtime, _contending_root, workers, workers=workers)
    assert max(p.active for p in builder.parallelism()) <= workers
    open_tids = set()
    for event in events:
        if event.kind == "activate":
            assert event.tid not in open_tids, f"tid {event.tid} activated twice"
            open_tids.add(event.tid)
        elif event.kind in ("suspend", "terminate"):
            open_tids.discard(event.tid)
    assert not open_tids
