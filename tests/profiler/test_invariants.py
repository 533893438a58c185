"""Property-based profiler invariants over seeded random Task Bench DAGs.

Three invariant families, each over a different slice of the
configuration space:

- ``span <= makespan <= work`` needs the coarse-grain ``trivial``
  shape: task-granularity span over-approximates on shapes whose
  serial driver overlaps node execution (the driver's busy time joins
  the chain), and ``makespan <= work`` needs grains that dwarf the
  per-task scheduling overhead;
- the critical-path/work identities hold on *every* shape and grain;
- the 0 % what-if replay is bit-identical on every shape (the
  ``scaled(1.0) is self`` fast path rewrites nothing).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session, TelemetryConfig
from repro.profiler import ProfileConfig
from repro.profiler.whatif import WhatIfSpec
from repro.workloads import WorkloadSpec

#: Runs without counter instrumentation.
NO_COUNTERS = TelemetryConfig(counters=())


def _profile(spec: str, cores: int, what_if=()):
    session = Session(runtime="hpx", cores=cores)
    return session.run(
        WorkloadSpec.parse(spec),
        telemetry=NO_COUNTERS,
        profile=ProfileConfig(what_if=tuple(what_if)),
    )


# Width 4/8/16 keeps every shape valid (fft needs a power of two).
_ANY_SHAPE = st.sampled_from(["trivial", "stencil_1d", "fft", "tree", "random"])
_WIDTH = st.sampled_from([4, 8, 16])
_STEPS = st.integers(2, 5)
_SEED = st.integers(0, 1_000_000)


@settings(max_examples=10)
@given(
    width=st.integers(5, 16),
    steps=st.integers(2, 5),
    grain=st.sampled_from([20_000, 40_000, 60_000]),
    cores=st.sampled_from([2, 4]),
    seed=_SEED,
)
def test_span_makespan_work_ordering_on_coarse_trivial(width, steps, grain, cores, seed):
    spec = f"taskbench:shape=trivial,width={width},steps={steps},grain_ns={grain},seed={seed}"
    result = _profile(spec, cores)
    profile = result.profile
    assert result.verified
    assert 0 < profile.span_ns <= profile.makespan_ns <= profile.work_ns
    # Brent: the speedup ceiling bounds the measured speedup over T1.
    assert profile.work_ns / profile.makespan_ns <= profile.average_parallelism + 1e-9


@settings(max_examples=12)
@given(
    shape=_ANY_SHAPE, width=_WIDTH, steps=_STEPS, grain=st.sampled_from([2_000, 10_000]), seed=_SEED
)
def test_critical_path_identities_on_any_shape(shape, width, steps, grain, seed):
    spec = f"taskbench:shape={shape},width={width},steps={steps},grain_ns={grain},seed={seed}"
    result = _profile(spec, 4)
    profile = result.profile
    assert result.verified
    assert sum(step.busy_ns for step in profile.critical_path) == profile.span_ns
    assert sum(ns for _body, ns in profile.critical_body_ns) == profile.span_ns
    assert profile.work_ns == sum(fp.busy_ns for fp in profile.flat)
    assert 0 < profile.span_ns <= profile.work_ns
    assert profile.tasks == result.tasks_created


@settings(max_examples=6)
@given(shape=_ANY_SHAPE, width=_WIDTH, steps=st.integers(2, 4), seed=_SEED)
def test_zero_percent_what_if_is_bit_identical_on_any_shape(shape, width, steps, seed):
    spec = f"taskbench:shape={shape},width={width},steps={steps},grain_ns=5000,seed={seed}"
    result = _profile(spec, 4, what_if=(WhatIfSpec(body="_node_task", speedup_pct=0),))
    w = result.profile.what_if[0]
    assert w.rewritten_computes > 0
    assert w.predicted_makespan_ns == w.baseline_makespan_ns == w.replayed_makespan_ns
    assert w.scaled_work_ns == result.profile.work_ns
    assert w.scaled_span_ns == result.profile.span_ns
