"""What-if replays: pinned results, and the work a replay no longer does.

A replay only times the run: it pays the baseline's instrumentation
charges (the profiler's, every counter's, the periodic query's) but
folds no trace and builds no profile.  ``PINNED`` holds each
experiment's prediction, replayed makespan and rewritten-compute count
as the full profiled replay computed them; a replay that dropped one
of those charges would move the replayed makespan.
"""

import pytest

from repro.api import RunSpec, Session
from repro.exec.probes import ProbeBus
from repro.profiler import ProfileBuilder, ProfileConfig, parse_what_if
from repro.profiler import builder as builder_module
from repro.workloads import WorkloadSpec

PROFILER_WORK = "/profiler{locality#0/total}/work-ns"
TIME_AVERAGE = "/threads{locality#0/total}/time/average"

#: name -> (run, [(predicted, replayed, rewritten computes) per experiment]).
PINNED = {
    "std": (
        RunSpec("fib", {"n": 12}, runtime="std", cores=4, what_if=(("fib", 50),)),
        [(1_794_221, 3_527_646, 465)],
    ),
    # A /profiler counter keeps a live builder in the replay; the 10 us
    # query charges in-band time for each of the two counters.
    "hpx-query": (
        RunSpec(
            "fib",
            {"n": 14},
            cores=2,
            counters=(TIME_AVERAGE, PROFILER_WORK),
            interval_ns=10_000,
            what_if=(("fib", 50),),
        ),
        [(694_206, 953_130, 1_219)],
    ),
    "two-experiments": (
        RunSpec("fib", {"n": 14}, cores=4, what_if=(("fib", 25), ("fib", 75))),
        [(535_366, 628_290, 1_219), (178_500, 456_414, 1_219)],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_what_if_results_are_pinned(name):
    spec, expected = PINNED[name]
    result = Session().run(spec)
    got = [
        (w.predicted_makespan_ns, w.replayed_makespan_ns, w.rewritten_computes)
        for w in result.profile.what_if
    ]
    assert got == expected


def test_a_replay_folds_no_trace_and_builds_no_profile(monkeypatch):
    counts = {"analyses": 0, "subscribed": 0, "finalized": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        builder_module, "analyze_dag", counting("analyses", builder_module.analyze_dag)
    )
    monkeypatch.setattr(
        ProbeBus, "subscribe_trace", counting("subscribed", ProbeBus.subscribe_trace)
    )
    monkeypatch.setattr(ProfileBuilder, "finalize", counting("finalized", ProfileBuilder.finalize))
    result = Session(runtime="hpx", cores=4).run(
        WorkloadSpec.parse("fib:n=18"),
        profile=ProfileConfig(what_if=(parse_what_if("body=fib,speedup=50"),)),
    )
    assert result.profile.what_if[0].rewritten_computes == 8_361
    # The baseline's analysis and the experiment's scaled one; one hook,
    # one report.  A profiled replay made it 3, 2 and 2.
    assert counts == {"analyses": 2, "subscribed": 1, "finalized": 1}
