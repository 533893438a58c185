"""Effect objects and the task-context API (Table II surface)."""

import pytest

from repro.model.context import TaskContext
from repro.model.effects import Await, AwaitAll, Compute, Lock, Spawn, Unlock, YieldNow
from repro.model.work import Work


class _FakeRuntime:
    name = "hpx"
    num_workers = 3

    def create_mutex(self):
        return "mutex-object"


@pytest.fixture
def ctx():
    return TaskContext(_FakeRuntime())


def test_async_builds_spawn(ctx):
    def body(c):
        yield

    effect = ctx.async_(body, 1, 2, policy="fork", stack_bytes=4096)
    assert isinstance(effect, Spawn)
    assert effect.fn is body
    assert effect.args == (1, 2)
    assert effect.policy == "fork"
    assert effect.stack_bytes == 4096


def test_async_default_policy(ctx):
    effect = ctx.async_(lambda c: None)
    assert effect.policy == "async"


def test_wait_builds_await(ctx):
    marker = object()
    effect = ctx.wait(marker)
    assert isinstance(effect, Await)
    assert effect.future is marker


def test_wait_all_builds_awaitall(ctx):
    effect = ctx.wait_all([1, 2, 3])
    assert isinstance(effect, AwaitAll)
    assert effect.futures == (1, 2, 3)


def test_compute_accepts_work(ctx):
    w = Work(cpu_ns=5)
    assert ctx.compute(w).work is w


def test_compute_accepts_raw_ns(ctx):
    effect = ctx.compute(1500, membytes=64)
    assert isinstance(effect, Compute)
    assert effect.work == Work(cpu_ns=1500, membytes=64)


def test_compute_cache_keeps_caching_when_full(ctx, monkeypatch):
    """A process that has seen many other demands still shares effects."""
    from repro.model import context

    monkeypatch.setattr(context, "_COMPUTE_CACHE", {})
    for cpu_ns in range(10_000, 10_000 + 1024):
        ctx.compute(cpu_ns, membytes=64)
    assert ctx.compute(7, membytes=64) is ctx.compute(7, membytes=64)


def test_compute_kwargs_forwarded(ctx):
    effect = ctx.compute(10, working_set=999)
    assert effect.work.working_set == 999


def test_lock_unlock(ctx):
    m = object()
    assert isinstance(ctx.lock(m), Lock)
    assert isinstance(ctx.unlock(m), Unlock)
    assert ctx.lock(m).mutex is m


def test_yield_now(ctx):
    assert isinstance(ctx.yield_now(), YieldNow)


def test_new_mutex_delegates(ctx):
    assert ctx.new_mutex() == "mutex-object"


def test_runtime_identity(ctx):
    assert ctx.runtime_name == "hpx"
    assert ctx.num_workers == 3
