"""Every example script runs end to end and prints what it promises."""

import os
import re
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "HPX-style runtime" in out
    assert "task duration" in out
    assert "ABORTED" in out  # the std::async fib failure


def test_inncabs_scaling():
    out = run_example("inncabs_scaling.py", "fib", "--cores", "1,4")
    assert "strong scaling: fib" in out
    assert "Abort" in out  # std fib fails
    assert "HPX" in out and "scaling:" in out


def test_counter_explorer():
    out = run_example("counter_explorer.py")
    assert "== discovery ==" in out
    assert "worker-thread#3" in out
    assert "sort finished" in out and "verified=True" in out
    assert "GB/s" in out


def test_adaptive_throttling():
    out = run_example("adaptive_throttling.py")
    assert "park-worker" in out
    assert "powered core-time saved" in out


def test_distributed_counters():
    out = run_example("distributed_counters.py")
    assert "locality 2" in out
    assert "cached re-resolution" in out
    assert "parcels sent" in out


def test_parallel_algorithms():
    out = run_example("parallel_algorithms.py")
    assert "3.14" in out
    assert "chunk" in out


def test_work_span_analysis():
    out = run_example("work_span_analysis.py", "fib")
    assert "avg parallelism" in out
    assert "Brent's bound holds" in out


def _python_block(doc: str, marker: str) -> str:
    """The first ```python block of *doc* that contains *marker*."""
    for block in re.findall(r"```python\n(.*?)```", (ROOT / doc).read_text(), re.S):
        if marker in block:
            return block
    raise AssertionError(f"no python block containing {marker!r} in {doc}")


def test_documented_python_runs(tmp_path):
    """README's Quickstart and the telemetry, profiler and campaign API examples run as written."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for doc, marker in (
        ("README.md", 'Session(runtime="std", cores=4)'),
        ("docs/telemetry.md", "TelemetryConfig("),
        ("docs/profiler.md", "ProfileConfig("),
        ("docs/campaigns.md", "run_campaign("),
    ):
        result = subprocess.run(
            [sys.executable, "-c", _python_block(doc, marker)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, f"{doc}: {result.stderr[-2000:]}"
