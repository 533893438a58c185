#!/usr/bin/env python3
"""End-to-end benchmark of the simulator, with layer attribution and a correctness gate.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                                  [--out FILE]
    python3 benchmarks/e2e/run.py trace [--workload NAME] [--seed N] [--seconds S] [--out FILE]
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py record-digests

Every workload (or the one named) runs in a fresh child process with
single-threaded BLAS, first one untimed warm-up pass, then timed passes
until ``--seconds`` have elapsed.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json`` (medians over passes; ``setup_s`` is the
median over five fresh processes); ``--trace 1`` (or ``trace``)
alternates untraced and traced passes and reports the per-layer
metrics instead.  Every run's outputs are hashed and checked: against
the committed ``digests.json`` on the default seed, against the other
passes of the same invocation on any seed, and against the committed
list of runs that must abort.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
status is non-zero when any output is wrong.

``compare`` classifies each workload x end-to-end metric of two
``--out`` files as ok, regressed or unresolved against the bounds in
``BENCHMARK.json``.  ``record-digests`` rewrites ``digests.json`` after
an intentional change to what the simulator computes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import suite  # noqa: E402

#: Fresh processes timed for ``setup_s``.
SETUP_PROCESSES = 5
#: Wall-clock budget of one invocation per workload, under the 180 s
#: a run may take.
BUDGET_S = 170.0
#: A traced pass's self times plus wrapper cost plus the unattributed
#: time must equal its wall time within this share.
RECONCILE_TOLERANCE = 0.05
#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


# -- statistics ------------------------------------------------------------------


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n - max(1, math.ceil(p / 100.0 * n)) >= 10:
            return p, percentile(values, p)
    return None


def summarize(values: list[float]) -> dict[str, Any]:
    """Median, quartiles, max, tail percentile and count of *values*."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "max": max(values),
        "n": len(values),
        "tail": list(tail) if tail else None,
        "values": values,
    }


def spread(summary: dict[str, Any]) -> float:
    """Interquartile distance as a share of the median."""
    return (summary["q3"] - summary["q1"]) / abs(summary["median"]) if summary["median"] else 0.0


def classify(
    better: str, bound: float, base: dict[str, Any], new: dict[str, Any]
) -> tuple[str, float]:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric, plus the change.

    A row whose pass spread on either side exceeds the bound is
    unresolved, unless every value of *new* beats every value of *base*.
    """
    sign = 1.0 if better == "lower" else -1.0
    change = (new["median"] - base["median"]) / abs(base["median"]) if base["median"] else 0.0
    if max(spread(base), spread(new)) > bound:
        if all(sign * (y - x) < 0 for x in base["values"] for y in new["values"]):
            return "ok", change
        return "unresolved", change
    return ("regressed" if sign * change > bound else "ok"), change


# -- the benchmark definition -----------------------------------------------------


def load_definition() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_digests() -> dict[str, Any]:
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {"seed": suite.DEFAULT_SEED, "workloads": {}}


def check_outputs(
    passes: list[list[list[Any]]], committed: dict[str, Any] | None, default_seed: bool
) -> tuple[int, int, list[str]]:
    """Count runs attempted and failed over every pass.

    Each record is ``[label, digest, aborted, verified]``.  A run fails
    when it raised, when it finished unverified, when it aborted and
    was not expected to (or the reverse), or when its digest differs
    from the reference: the committed digest on the default seed, else
    the first pass's.  A committed run missing from a pass fails too.
    """
    first = {label: digest for label, digest, _, _ in passes[0]} if passes else {}
    expected = set(committed["digests"]) if committed else set(first)
    aborts = set(committed["aborts"]) if committed else set()
    reference = committed["digests"] if committed and default_seed else first
    attempted = failed = 0
    problems: list[str] = []
    for index, records in enumerate(passes):
        seen = set()
        for label, digest, aborted, verified in records:
            seen.add(label)
            attempted += 1
            why = None
            if digest is None:
                why = "raised"
            elif committed and label not in expected:
                why = "not a committed run"
            elif committed and aborted != (label in aborts):
                why = "aborted unexpectedly" if aborted else "did not abort"
            elif not aborted and not verified:
                why = "unverified"
            elif digest != reference.get(label):
                why = "digest mismatch"
            if why:
                failed += 1
                problems.append(f"pass {index}: {label}: {why}")
        for label in sorted(expected - seen):
            attempted += 1
            failed += 1
            problems.append(f"pass {index}: {label}: missing")
    return attempted, failed, problems


# -- child processes --------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(suite.THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(WORK)
    return env


def _spawn(args: list[str], deadline: float) -> str:
    """Run this script with *args* in a fresh process; return its last output line."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *args],
        stdout=subprocess.PIPE,
        cwd=ROOT,
        env=_child_env(),
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{' '.join(args[:2])}: timed out") from None
    finally:
        # Also stops a campaign child's pool workers: they share its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:2])}: exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(args[:2])}: printed nothing")
    return lines[-1]


def setup_main(name: str, seed: int) -> None:
    """Time import + workload resolution + Sessions + builds in this fresh process."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro.api  # noqa: F401

    suite.WORKLOADS[name].setup(seed)
    print(time.perf_counter() - t0)


def _pass_json(p: suite.Pass) -> dict[str, Any]:
    return {
        "wall_s": p.wall_s,
        "cpu_s": p.cpu_s,
        "events_per_s": p.rate("events"),
        "tasks_per_s": p.rate("tasks"),
        "records": [[r.label, r.digest, r.aborted, r.verified] for r in p.records],
    }


def layer_metrics(
    untraced: list[suite.Pass],
    traced: list[suite.Pass],
    tracers: list[spans.SpanTracer],
    calibration: spans.Calibration,
    parallel: list[suite.Pass],
    replay: tuple[int, float] | None,
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics (medians over traced passes) and reconciliation problems."""
    rows, problems = [], []
    cells_s = []
    for index, (p, t) in enumerate(zip(traced, tracers)):
        exact = [r for r in p.records if r.exact]
        events = sum(r.events for r in exact)
        tasks = sum(r.tasks for r in exact)
        overhead_s = t.total_calls * calibration.per_call_ns / 1e9
        unattributed_s = p.wall_s - t.covered_ns / 1e9
        self_total = sum(s.self_ns for s in t.spans.values()) / 1e9
        mismatch = self_total + overhead_s + unattributed_s - p.wall_s
        if abs(mismatch) > RECONCILE_TOLERANCE * p.wall_s:
            problems.append(f"traced pass {index}: self times do not reconcile with wall time")
        cells_s.append(sum(t.durations("campaign.cell")) / 1e9)
        lookups = t.calls("campaign.cache.load")
        rows.append(
            {
                "api.run_self_s": t.self_s("api.run"),
                "workloads.build_s": t.self_s("workloads.build"),
                "counters.registry_s": t.self_s("counters.registry"),
                "simcore.events.self_s": t.self_s("simcore.events"),
                "simcore.events.events": events,
                "simcore.events.events_per_task": events / tasks if tasks else 0.0,
                "exec.interp.self_s": t.self_s("exec.interp"),
                "exec.interp.steps": t.calls("exec.interp"),
                "runtime.scheduler.self_s": t.self_s("runtime.scheduler"),
                "runtime.scheduler.calls": t.calls("runtime.scheduler"),
                "kernel.scheduler.self_s": t.self_s("kernel.scheduler"),
                "kernel.scheduler.calls": t.calls("kernel.scheduler"),
                "kernel.scheduler.aborted_runs": sum(
                    1 for r in p.records if r.runtime == "std" and r.aborted
                ),
                "platform.resource.self_s": t.self_s(
                    "platform.resource.begin", "platform.resource.end"
                ),
                "platform.resource.segments": t.calls("platform.resource.begin"),
                "exec.probes.self_s": t.self_s("exec.probes"),
                "profiler.self_s": t.self_s("profiler.hook", "profiler.finalize"),
                "profiler.trace_events": t.calls("profiler.hook"),
                "telemetry.self_s": t.self_s("telemetry", "telemetry.record"),
                "telemetry.samples": t.count("telemetry.record"),
                "exec.cohort.self_s": t.self_s("exec.cohort"),
                "inncabs.verify_s": t.self_s("inncabs.verify"),
                "campaign.cache_s": t.self_s("campaign.cache.load", "campaign.cache.store"),
                "campaign.keys_s": t.self_s("campaign.keys"),
                "campaign.artifact_s": t.self_s("campaign.artifact"),
                "campaign.cache_hit_ratio": (
                    t.count("campaign.cache.load") / lookups if lookups else 0.0
                ),
                "trace.unattributed_frac": unattributed_s / p.wall_s,
                "_overhead_s": overhead_s,
            }
        )
    metrics = {k: statistics.median(row[k] for row in rows) for k in rows[0] if k[0] != "_"}
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    traced_wall = statistics.median(p.wall_s for p in traced)
    overhead_s = statistics.median(row["_overhead_s"] for row in rows)
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    metrics["trace.residual_frac"] = (traced_wall - overhead_s - untraced_wall) / untraced_wall
    metrics["trace.wrapper_ns"] = calibration.per_call_ns
    cells_ms = [d / 1e6 for t in tracers for d in t.durations("campaign.cell")]
    metrics["campaign.cell_p50_ms"] = percentile(cells_ms, 50) if cells_ms else 0.0
    metrics["campaign.cell_p90_ms"] = percentile(cells_ms, 90) if cells_ms else 0.0
    metrics["campaign.pool_wait_s"] = (
        statistics.median(p.wall_s for p in parallel)
        - statistics.median(cells_s) / suite.CAMPAIGN_JOBS
        if parallel
        else 0.0
    )
    metrics["simcore.events.replay_eps"] = replay[0] / replay[1] if replay and replay[1] else 0.0
    return metrics, problems


def child_main(name: str, seed: int, seconds: float, trace: bool, work_dir: str) -> None:
    """Warm up, then time passes for *seconds*; print the outcome as JSON."""
    sys.path.insert(0, str(SRC))
    import numpy

    workload = suite.WORKLOADS[name]
    cold_campaign = isinstance(workload, suite.CampaignWorkload) and not workload.hit
    state = workload.setup(seed)
    workload.warmup(state, Path(work_dir))
    calibration = spans.calibrate() if trace else None
    untraced: list[suite.Pass] = []
    traced: list[suite.Pass] = []
    tracers: list[spans.SpanTracer] = []
    parallel: list[suite.Pass] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if trace and cold_campaign and not parallel:
            # The pool's wall time, for pool_wait_s; traced passes run serially.
            parallel.append(workload.run_pass(state))
            gc.collect()
        untraced.append(workload.run_pass(state, serial=trace))
        if trace:
            gc.collect()
            tracer = spans.SpanTracer(calibration)
            spans.install_layers(tracer)
            try:
                traced.append(workload.run_pass(state, serial=True))
            finally:
                tracer.restore()
            tracers.append(tracer)
        if time.perf_counter() - start >= seconds:
            break
    out: dict[str, Any] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "passes": [_pass_json(p) for p in untraced + parallel],
        "traced": [_pass_json(p) for p in traced],
    }
    # The workload process alone: a pool worker's peak depends on which
    # cells it happened to draw, which moves it by several percent.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        replay = workload.replay(state) if isinstance(workload, suite.SessionWorkload) else None
        out["layers"], out["problems"] = layer_metrics(
            untraced, traced, tracers, calibration, parallel, replay
        )
    print(json.dumps(out))


# -- the parent ---------------------------------------------------------------------


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Run one workload in child processes; return its metrics and checks."""
    definition = load_definition()
    deadline = time.monotonic() + BUDGET_S
    work = WORK / f"{os.getpid()}-{name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if trace else [
            float(_spawn(["_setup", name, str(seed)], deadline)) for _ in range(SETUP_PROCESSES)
        ]
        child = json.loads(
            _spawn(["_child", name, str(seed), repr(seconds), str(int(trace)), str(work)], deadline)
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    digests = load_digests()
    committed = digests["workloads"].get(name)
    attempted, failed, problems = check_outputs(
        [p["records"] for p in child["passes"] + child["traced"]],
        committed,
        default_seed=seed == digests["seed"],
    )
    problems += child.get("problems", [])
    failed += len(child.get("problems", []))
    first = child["passes"][0]["records"]
    result: dict[str, Any] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems,
        "python": child["python"],
        "numpy": child["numpy"],
        "digests": {label: digest for label, digest, _, _ in first},
        "aborts": sorted(label for label, _, aborted, _ in first if aborted),
    }
    if trace:
        result["layers"] = {
            m["name"]: {"value": child["layers"][m["name"]], "unit": m["unit"]}
            for m in definition["per_layer"]
        }
    else:
        values = {
            "setup_s": setup,
            "peak_rss_mb": [child["peak_rss_mb"]],
            **{
                key: [p[key] for p in child["passes"]]
                for key in ("wall_s", "cpu_s", "events_per_s", "tasks_per_s")
            },
        }
        result["metrics"] = {
            m["name"]: {"unit": m["unit"], **summarize(values[m["name"]])}
            for m in definition["end_to_end"]
        }
    return result


def _print_workload(name: str, result: dict[str, Any]) -> None:
    for metric, s in result.get("metrics", {}).items():
        tail = f" p{s['tail'][0]:g} {s['tail'][1]:.6g}" if s["tail"] else ""
        print(
            f"{name:15s} {metric:15s} {s['median']:>14.6g} {s['unit']:6s}"
            f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} max {s['max']:.6g}{tail} n={s['n']}"
        )
    for metric, m in result.get("layers", {}).items():
        print(f"{name:15s} {metric:32s} {m['value']:>14.6g} {m['unit']}")
    status = "ok" if result["correct"] else "FAILED"
    print(
        f"{name:15s} outputs: {status}, {result['failed']}/{result['attempted']} runs failed"
        f" (failed_frac {result['failed_frac']:.4g})"
    )
    for problem in result["problems"][:20]:
        print(f"{name:15s}   {problem}")


def run_main(args: argparse.Namespace) -> int:
    definition = load_definition()
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    seconds = definition["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(suite.WORKLOADS)
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, seconds, bool(args.trace))
        _print_workload(name, results[name])
    if args.out:
        first = next(iter(results.values()))
        env = {
            "nproc": os.cpu_count(),
            "python": first["python"],
            "numpy": first["numpy"],
            "git_sha": _git_sha(),
            "seed": args.seed,
            "seconds": seconds,
            "trace": bool(args.trace),
            "machine": platform.machine(),
        }
        Path(args.out).write_text(
            json.dumps({"schema": "repro-e2e/1", "env": env, "workloads": results}, indent=1)
            + "\n",
            encoding="utf-8",
        )
    key = "layers" if args.trace else "metrics"
    if len(names) == 1:
        metrics = {
            m: {"value": v.get("value", v.get("median")), "unit": v["unit"]}
            for m, v in results[names[0]][key].items()
        }
    else:
        metrics = {
            f"{name}/{m}": {"value": v.get("value", v.get("median")), "unit": v["unit"]}
            for name, r in results.items()
            for m, v in r[key].items()
        }
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def compare_main(base_path: str, new_path: str) -> int:
    """Print one row per workload x end-to-end metric; non-zero on a regression."""
    definition = load_definition()
    try:
        base = json.loads(Path(base_path).read_text(encoding="utf-8"))
        new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bad = False
    same_seed = base["env"]["seed"] == new["env"]["seed"]
    for name in base["workloads"]:
        a, b = base["workloads"][name], new["workloads"].get(name)
        if b is None:
            print(f"{name:15s} missing from {new_path}")
            bad = True
            continue
        for side, r in (("base", a), ("new", b)):
            if r["failed_frac"] > 0:
                print(f"{name:15s} {side}: failed_frac {r['failed_frac']:.4g}")
                bad = True
        if same_seed and a["digests"] != b["digests"]:
            print(f"{name:15s} outputs differ between the two sets")
            bad = True
        for m in definition["end_to_end"]:
            if m["name"] not in a.get("metrics", {}) or m["name"] not in b.get("metrics", {}):
                continue
            x, y = a["metrics"][m["name"]], b["metrics"][m["name"]]
            status, change = classify(m["better"], m["bound"], x, y)
            bad |= status == "regressed"
            print(
                f"{name:15s} {m['name']:14s} {x['median']:>12.6g} [{x['q1']:.5g}..{x['q3']:.5g}]"
                f" {y['median']:>12.6g} [{y['q1']:.5g}..{y['q3']:.5g}] {m['unit']:6s}"
                f" {change:+7.1%} bound {m['bound']:.0%} spread"
                f" {spread(x):.1%}/{spread(y):.1%} {status}"
            )
    return 1 if bad else 0


def record_digests_main() -> int:
    """Rewrite digests.json from one pass of each workload at the default seed."""
    out: dict[str, Any] = {"seed": suite.DEFAULT_SEED, "workloads": {}}
    for name in suite.WORKLOADS:
        result = measure(name, suite.DEFAULT_SEED, 0.0, trace=False)
        out["workloads"][name] = {"digests": result["digests"], "aborts": result["aborts"]}
        print(f"{name}: {len(result['digests'])} runs, {len(result['aborts'])} expected aborts")
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["_setup"]:
        setup_main(argv[1], int(argv[2]))
        return 0
    if argv[:1] == ["_child"]:
        child_main(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1", argv[5])
        return 0
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        return compare_main(args.base, args.new)
    if argv[:1] == ["record-digests"]:
        return record_digests_main()
    traced = argv[:1] == ["trace"]
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, default=suite.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0 if traced else None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=int(traced))
    parser.add_argument("--out", help="write every metric and check to this JSON file")
    args = parser.parse_args(argv[1:] if traced else argv)
    return run_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
