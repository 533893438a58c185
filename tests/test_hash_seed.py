"""A run's result does not depend on the interpreter's string-hash seed.

``PYTHONHASHSEED`` changes the iteration order of every set of strings
(and of anything built by iterating one).  A result that followed that
order would differ between two processes given one ``RunSpec``: between
a campaign's pool workers, serve, the CLI and the result cache.  Three
small runs cover the profiler with a what-if replay, the std runtime
with the paper's counters, and periodic per-worker queries; each runs
in two fresh interpreters, under hash seeds 0 and 1, and their
``RunResult.to_json()`` must be the same JSON text.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PROBE = """
import json
from repro.api import RunSpec, Session

specs = [
    RunSpec("fib", {"n": 12}, runtime="hpx", cores=4, profile=True, what_if=(("fib", 50),)),
    RunSpec("health", {"levels": 4, "branching": 3, "steps": 4}, runtime="std", cores=4),
    RunSpec("uts", {}, runtime="hpx", cores=4, interval_ns=10_000),
]
results = [Session().run(spec) for spec in specs]
assert not any(result.aborted for result in results)
print(json.dumps([result.to_json() for result in results]))
"""


def test_results_do_not_depend_on_the_hash_seed():
    src = str(Path(repro.__file__).resolve().parent.parent)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", PROBE],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        )
        for seed in ("0", "1")
    ]
    outputs = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outputs.append(out)
    first, second = outputs
    assert first == second
    fib, health, uts = json.loads(first)
    assert fib["profile"]["what_if"]  # the replay ran
    assert health["telemetry"] and health["verified"]
    assert len(uts["telemetry"]) > 100  # periodic per-worker samples
