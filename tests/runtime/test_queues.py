"""Work-stealing deque semantics, observed on :class:`HpxRuntime`.

Each worker stages tasks in a plain deque: the owner pushes and pops at
its hot end (newest first), thieves take from the cold end (oldest
first).  The tests read the order tasks start in off the trace hook.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.runtime.config import HpxParams
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine


def _child(ctx, label):
    yield ctx.compute(1_000)
    return label


def _spawn_three(ctx, busy_ns):
    futures = []
    for label in (1, 2, 3):
        futures.append((yield ctx.async_(_child, label)))
    if busy_ns:
        yield ctx.compute(busy_ns)  # the owner stays busy while a thief steals
    return (yield ctx.wait_all(futures))


def _first_activations(rt):
    """``(worker, label)`` of every child's first activation, in order."""
    order, seen = [], set()

    def hook(time_ns, kind, task, aux):
        if kind == "activate" and task.fn is _child and task.tid not in seen:
            seen.add(task.tid)
            order.append((aux, task.args[0]))

    rt.probes.subscribe_trace(hook)
    return order


def test_empty_queue():
    engine = Engine()
    rt = HpxRuntime(engine, Machine(), num_workers=2)
    assert rt.queue_length() == 0
    assert [rt.worker_queue_length(i) for i in range(2)] == [0, 0]
    # A woken worker with nothing staged and nothing to steal goes idle.
    rt.set_active_workers(1)
    rt.set_active_workers(2)
    engine.run()
    thief = rt.workers[1]
    assert thief.state == "idle"
    assert thief.stats.steals_attempted == 1
    assert thief.stats.steals_ok == 0
    assert rt.stats.phases == 0


def test_owner_lifo():
    rt = HpxRuntime(Engine(), Machine(), num_workers=1)
    order = _first_activations(rt)
    assert rt.run_to_completion(_spawn_three, 0) == [1, 2, 3]
    # Most recent first: depth-first execution.
    assert order == [(0, 3), (0, 2), (0, 1)]


def test_thief_takes_oldest():
    engine = Engine()
    rt = HpxRuntime(engine, Machine(), num_workers=2)
    order = _first_activations(rt)
    rt.set_active_workers(1)  # stage all three children on worker 0
    engine.call_later(5_000, rt.set_active_workers, 2)
    assert rt.run_to_completion(_spawn_three, 1_000_000) == [1, 2, 3]
    # The owner computes throughout; the thief drains its deque oldest first.
    assert order == [(1, 1), (1, 2), (1, 3)]
    assert rt.workers[1].stats.steals_ok == 3


def test_push_tail():
    # The FIFO ablation stages children at the cold end: breadth-first.
    rt = HpxRuntime(
        Engine(), Machine(), num_workers=1, params=HpxParams(local_queue_discipline="fifo")
    )
    order = _first_activations(rt)
    assert rt.run_to_completion(_spawn_three, 0) == [1, 2, 3]
    assert order == [(0, 1), (0, 2), (0, 3)]


def _tree(ctx, fanouts, depth):
    if depth % 2:
        yield ctx.yield_now()  # requeued at the cold end
    futures = []
    for _ in range(fanouts[depth] if depth < len(fanouts) else 0):
        futures.append((yield ctx.async_(_tree, fanouts, depth + 1)))
    yield ctx.compute(500)
    counts = yield ctx.wait_all(futures)
    return 1 + sum(counts)


def _tree_size(fanouts):
    size, width = 1, 1
    for fanout in fanouts:
        width *= fanout
        size += width
    return size


@given(
    st.lists(st.integers(0, 3), max_size=4),
    st.integers(1, 4),
    st.sampled_from(["lifo", "fifo"]),
)
def test_property_no_lost_or_duplicated_tasks(fanouts, workers, discipline):
    """Every staged task runs to completion exactly once, whichever
    worker pops or steals it."""
    rt = HpxRuntime(
        Engine(),
        Machine(),
        num_workers=workers,
        params=HpxParams(local_queue_discipline=discipline),
    )
    created, terminated = [], []

    def hook(time_ns, kind, task, aux):
        if kind == "create":
            created.append(task.tid)
        elif kind == "terminate":
            terminated.append(task.tid)

    rt.probes.subscribe_trace(hook)
    assert rt.run_to_completion(_tree, tuple(fanouts), 0) == _tree_size(fanouts)
    assert sorted(terminated) == sorted(created)
    assert len(set(terminated)) == len(terminated) == _tree_size(fanouts)
    assert rt.queue_length() == 0
    # Every worker ended idle, and the idle count that gates wake-ups agrees.
    assert [w.state for w in rt.workers] == ["idle"] * workers
    assert rt._idle == workers
