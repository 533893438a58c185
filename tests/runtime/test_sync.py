"""HPX local mutex."""

import pytest

from repro.model.sync import Mutex
from repro.runtime.policies import LaunchPolicy
from repro.runtime.task import Task


def make_task(tid: int) -> Task:
    return Task(tid, lambda ctx: None, (), LaunchPolicy.ASYNC, parent_tid=None, home_socket=0)


def test_uncontended_acquire():
    m = Mutex(0)
    t = make_task(1)
    assert m.try_acquire(t)
    assert m.locked
    assert m.owner is t
    assert m.acquisitions == 1


def test_contended_acquire_fails():
    m = Mutex(0)
    t1, t2 = make_task(1), make_task(2)
    assert m.try_acquire(t1)
    assert not m.try_acquire(t2)
    assert m.owner is t1


def test_release_hands_off_fifo():
    m = Mutex(0)
    t1, t2, t3 = make_task(1), make_task(2), make_task(3)
    m.try_acquire(t1)
    m.enqueue_waiter(t2)
    m.enqueue_waiter(t3)
    assert m.release(t1) is t2  # FIFO fairness
    assert m.owner is t2
    assert m.release(t2) is t3
    assert m.release(t3) is None
    assert not m.locked


def test_release_by_non_owner_rejected():
    m = Mutex(0)
    t1, t2 = make_task(1), make_task(2)
    m.try_acquire(t1)
    with pytest.raises(RuntimeError):
        m.release(t2)


def test_contention_counted():
    m = Mutex(0)
    m.try_acquire(make_task(1))
    m.enqueue_waiter(make_task(2))
    assert m.contentions == 1
    assert m.acquisitions == 1
