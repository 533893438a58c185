"""Tracing and DAG analysis on the std::async backend.

Before the shared execution layer, the trace hook was an HPX-only
feature; the probe bus gives the kernel model the same event stream,
so post-mortem tools work on either runtime.
"""

from repro.kernel.scheduler import StdRuntime
from repro.profiler.events import TraceRecorder
from repro.simcore.events import Engine
from repro.simcore.machine import Machine

from tests.conftest import fib_body
from tests.trace.dag_oracle import build_task_dag, work_span


def _run_traced(n=9):
    rt = StdRuntime(Engine(), Machine(), num_workers=2)
    recorder = TraceRecorder(rt)
    with recorder:
        rt.run_to_completion(fib_body, n)
    return rt, recorder


def test_std_trace_covers_the_lifecycle():
    rt, recorder = _run_traced()
    kinds = {e.kind for e in recorder.events}
    assert {"create", "activate", "suspend", "resume", "terminate", "depend"} <= kinds
    terminated = [e for e in recorder.events if e.kind == "terminate"]
    assert len(terminated) == rt.stats.tasks_executed
    created = [e for e in recorder.events if e.kind == "create"]
    assert len(created) == rt.stats.tasks_created


def test_std_create_events_carry_parent_edges():
    _, recorder = _run_traced()
    children = [e for e in recorder.events if e.kind == "create" and e.related is not None]
    assert children  # every spawned thread knows its parent
    tids = {e.tid for e in recorder.events if e.kind == "create"}
    assert all(e.related in tids for e in children)


def test_std_task_dag_and_work_span():
    rt, recorder = _run_traced()
    dag = build_task_dag(recorder)
    # Phase splitting: two nodes (spawn + join phase) per task.
    assert dag.number_of_nodes() == 2 * rt.stats.tasks_created
    assert dag.number_of_edges() > 0
    ws = work_span(recorder)
    assert 0 < ws.span_ns <= ws.work_ns
    assert ws.average_parallelism >= 1.0


def test_std_tracing_charges_instrumentation():
    """Attaching the recorder perturbs the run (per-dispatch cost)."""
    rt_plain = StdRuntime(Engine(), Machine(), num_workers=2)
    rt_plain.run_to_completion(fib_body, 9)
    rt_traced, _ = _run_traced(9)
    assert rt_traced.engine.now > rt_plain.engine.now
    assert rt_traced.instrument_ns == 0  # detached again after the run
