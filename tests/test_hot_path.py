"""The exact engine's hot path: a call budget and no cyclic garbage.

Wall time on a shared machine is noisy; the number of Python calls the
simulator makes per golden run is not.  ``BUDGETS`` holds each golden
run's count of calls into ``repro`` code during ``Engine.run`` (a
warmed-up second run, Python 3.11).  A change that makes the hot path
do more work per event fails here; an intended increase raises the
budget in the same change and says why in CHANGES.md.  Python 3.10 runs
the same frames, and 3.12 inlines comprehensions (PEP 709), so neither
counts more.

A retired task must be freed by reference counting, not left for the
cyclic collector: the garbage test runs under ``gc.DEBUG_SAVEALL`` and
finds no task in what the collector reclaims.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.api import RunSpec, Session, TelemetryConfig, WorkloadSpec
from repro.simcore.events import Engine
from repro.simcore.record import load_stream
from tests.fixtures.generate_golden import GOLDEN_RUNS

FIXTURES = Path(__file__).resolve().parent / "fixtures"
REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: The golden profile's run (``tests/profiler/test_golden_profile.py``):
#: its profiled baseline and its what-if replay are counted together.
PROFILED = "fib_hpx_profiled"
PROFILED_RUN = RunSpec(
    "fib", {"n": 16}, runtime="hpx", cores=4, counters=(), what_if=(("fib", 50),)
)

#: Calls into repro code during Engine.run, per golden run.
BUDGETS = {
    "fib_hpx": 153_322,
    "uts_hpx": 21_878,
    "health_hpx": 36_019,
    "fib_std": 24_850,
    "health_std": 8_748,
    PROFILED: 343_389,
}


def _run_golden(name: str, engine_factory=Engine):
    if name == PROFILED:
        return Session(engine_factory=engine_factory).run(PROFILED_RUN)
    benchmark, runtime, cores, params, collect = GOLDEN_RUNS[name]
    session = Session(runtime=runtime, cores=cores, engine_factory=engine_factory)
    return session.run(
        WorkloadSpec.parse(benchmark),
        params=params,
        telemetry=TelemetryConfig(counters=None if collect else ()),
    )


def _count_calls(name: str) -> tuple[int, int]:
    """(calls into repro code during Engine.run, engine events) of one run;
    a profiled run's count includes its what-if replays."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(REPRO_DIR):
            calls += 1

    class CountingEngine(Engine):
        def run(self, until=None):
            sys.setprofile(profile)
            try:
                super().run(until)
            finally:
                sys.setprofile(None)

    result = _run_golden(name, CountingEngine)
    return calls, result.engine_events


def count_golden_calls() -> dict[str, tuple[int, int]]:
    """Warm up on every golden run, then count each one once more."""
    names = [*GOLDEN_RUNS, PROFILED]
    for name in names:  # imports, caches, lazy set-up
        _run_golden(name)
    return {name: _count_calls(name) for name in names}


@pytest.fixture(scope="module")
def call_counts() -> dict[str, tuple[int, int]]:
    # A fresh interpreter: memos that earlier tests filled (the effect
    # cache behind ``ctx.compute`` stops adding keys once full) would
    # change the count.
    paths = [Path(repro.__file__).resolve().parent.parent, FIXTURES.parent.parent]
    probe = "import json, tests.test_hot_path as t; print(json.dumps(t.count_golden_calls()))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths))),
    )
    return {name: (calls, events) for name, (calls, events) in json.loads(out.stdout).items()}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_hot_path_call_budget(call_counts, name):
    calls, events = call_counts[name]
    fixture = load_stream(FIXTURES / f"{name}.stream.json.gz")
    assert events == fixture["engine_events"]
    assert calls <= BUDGETS[name], (
        f"{name}: {calls} calls into repro during Engine.run "
        f"({calls / events:.2f} per event), budget {BUDGETS[name]}"
    )


def test_profiled_run_call_budget(call_counts):
    calls, events = call_counts[PROFILED]
    assert events == 17_580  # the profiled baseline's
    assert calls <= BUDGETS[PROFILED], (
        f"{PROFILED}: {calls} calls into repro during the baseline's and the "
        f"replay's Engine.run, budget {BUDGETS[PROFILED]}"
    )


@pytest.mark.parametrize(
    ("runtime", "workload", "futures_kept"),
    [
        ("hpx", "fib:n=16", 0),
        # The std runtime keeps its root future for the abort path.
        ("std", "fib:n=12", 1),
    ],
)
def test_retired_tasks_leave_no_cyclic_garbage(runtime, workload, futures_kept):
    session = Session(runtime=runtime, cores=4)
    spec = WorkloadSpec.parse(workload)
    session.run(spec)  # warm up
    # Empty the collector of earlier tests' garbage first.  One pass is
    # not enough: finalizing the suspended task bodies of a deadlocked
    # run (tests/test_failure_injection.py) resurrects their whole cycle,
    # Tasks included, until the next pass, which must not be the one
    # that reads this run's garbage.
    for _ in range(3):
        gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        session.run(spec)
        gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert kinds["Task"] == 0
    assert kinds["OSThread"] == 0
    assert kinds["SimFuture"] <= futures_kept
