"""The profiler's one-pass DAG walk against the reference Kahn walk.

Every field of the :class:`~repro.profiler.analysis.DagAnalysis` —
work, span, tasks, edges, the critical path and its per-body
attribution — must equal the reference's, for the baseline weights
and for every body scaled, on both runtimes, inline (``deferred`` and
``sync``) children, mutex workloads, the partial DAG of an aborted std
run and the DAG read mid-run by a ``/profiler`` counter.  The
reference rebuilds the DAG from a :class:`TraceRecorder` subscribed
beside the builder, so the fold's recording is checked too.
"""

import pytest

import repro.api
from repro.api import RunSpec, Session
from repro.kernel.scheduler import StdRuntime
from repro.profiler import ProfileBuilder, TraceRecorder
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine

from tests.profiler.reference_dag import reference_analysis

CRITICAL_PATH = "/profiler{locality#0/total}/critical-path-ns"
FACTORS = (0.5, 0.0, 1.25)


class RecordedBuilder(ProfileBuilder):
    """A builder with a trace recorder subscribed beside it."""

    def attach(self) -> None:
        super().attach()
        self.recorder = TraceRecorder(self.runtime)
        self.recorder.attach()


@pytest.fixture
def builders(monkeypatch):
    """Every builder that ``Session.run`` makes, with its recorder."""
    made: list[RecordedBuilder] = []

    class Capturing(RecordedBuilder):
        def __init__(self, runtime, **kwargs):
            super().__init__(runtime, **kwargs)
            made.append(self)

    monkeypatch.setattr(repro.api, "ProfileBuilder", Capturing)
    return made


def assert_matches_reference(builder: ProfileBuilder, events) -> None:
    assert builder.analysis() == reference_analysis(events)
    for body in builder.body_names():
        for factor in FACTORS:
            want = reference_analysis(events, (body, factor))
            assert builder.scaled_analysis(body, factor) == want, (body, factor)


@pytest.mark.parametrize(
    ("workload", "params", "runtime", "cores"),
    [
        ("fib", {"n": 10}, "hpx", 4),
        ("fib", {"n": 8}, "std", 4),
        # Sibling joins: a node waits on futures of tasks created before it.
        ("taskbench", {"shape": "stencil_1d", "width": 4, "steps": 4}, "hpx", 2),
        ("taskbench", {"shape": "stencil_1d", "width": 4, "steps": 4}, "std", 2),
        # Mutexes.
        ("round", {"players": 8, "rounds": 4}, "hpx", 4),
        ("round", {"players": 8, "rounds": 4}, "std", 4),
        ("floorplan", {}, "hpx", 4),
        ("sort", {"n": 4096, "cutoff": 512}, "hpx", 4),
        ("health", {"levels": 3, "branching": 3, "steps": 3}, "std", 4),
    ],
)
def test_walk_matches_reference(builders, workload, params, runtime, cores):
    spec = RunSpec(workload, params, runtime=runtime, cores=cores, counters=(), profile=True)
    result = Session().run(spec)
    assert not result.aborted and result.verified
    (builder,) = builders
    assert_matches_reference(builder, builder.recorder.events)


def test_partial_dag_of_an_aborted_std_run(builders):
    result = Session().run(RunSpec("health", runtime="std", cores=4, counters=(), profile=True))
    assert result.aborted
    (builder,) = builders
    events = builder.recorder.events
    terminated = {e.tid for e in events if e.kind == "terminate"}
    assert len(terminated) < builder.analysis().tasks  # tasks still live at the abort
    assert_matches_reference(builder, events)


def _policy_tree(ctx, n: int, policy: str):
    if n < 2:
        yield ctx.compute(2_000)
        return n
    fa = yield ctx.async_(_policy_tree, n - 1, policy, policy=policy)
    fb = yield ctx.async_(_policy_tree, n - 2, policy, policy=policy)
    a, b = yield ctx.wait_all([fa, fb])
    yield ctx.compute(1_000)
    return a + b


@pytest.mark.parametrize("runtime_cls", [HpxRuntime, StdRuntime])
@pytest.mark.parametrize("policy", ["deferred", "sync"])
def test_inline_children_match_reference(runtime_cls, policy):
    rt = runtime_cls(Engine(), Machine(), num_workers=2)
    builder = ProfileBuilder(rt)
    recorder = TraceRecorder(rt)
    with builder, recorder:
        assert rt.run_to_completion(_policy_tree, 8, policy) == 21
    assert builder.analysis().tasks == 67
    assert_matches_reference(builder, recorder.events)


def test_mid_run_reads_match_reference(monkeypatch):
    reads = []

    class Checking(RecordedBuilder):
        def analysis(self):
            result = super().analysis()
            reads.append((result, reference_analysis(self.recorder.events)))
            return result

    monkeypatch.setattr(repro.api, "ProfileBuilder", Checking)
    spec = RunSpec("fib", {"n": 12}, cores=2, counters=(CRITICAL_PATH,), interval_ns=10_000)
    result = Session().run(spec)
    assert result.counters[CRITICAL_PATH] == result.profile.span_ns
    assert len({got.tasks for got, _want in reads}) > 10  # the DAG grew between reads
    for got, want in reads:
        assert got == want
