"""Load-test harness for the run server (``repro bench-serve``).

Spawns one real ``repro serve`` process, then drives it the way heavy
traffic does: N concurrent client tasks submit a run list hundreds of
entries deep as fast as admission control allows (backing off on 429 +
``Retry-After``), then long-poll every accepted run to completion.
Submissions are timestamped at first attempt and at completion, so the
reported p50/p99 latency is true submit-to-result time including queue
wait — the number a client of the service experiences.

The run list mixes unique workloads (distinct seeds -> cache misses
that really execute) with a small hot set resubmitted repeatedly
(cache hits served straight from the shared content-addressed cache),
so one invocation measures both the execution pipeline under backlog
and the cache-hit fast path.

Gating is ratio-based so the committed baseline transfers across
machines: ``p99_over_ideal`` divides p99 latency by the run's *ideal*
makespan (total cold simulated-run wall time / workers) measured in the
same invocation — a machine-speed control in the spirit of the
event-core replay gate's new÷legacy ratio.
"""

from __future__ import annotations

import asyncio
import math
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

BENCH_SERVE_SCHEMA = 1

#: (clients, runs, server workers) per mode.
MODES = {
    "quick": {"clients": 50, "runs": 500, "workers": 4},
    "reference": {"clients": 100, "runs": 2000, "workers": 8},
}

#: The hot set: workloads resubmitted throughout the run list.
HOT_WORKLOADS = 16
#: Fraction of the run list drawn from the hot set.
HOT_FRACTION = 0.2


def build_jobs(runs: int) -> list[dict[str, Any]]:
    """The deterministic run list: small fib cells, mostly unique.

    Every 1/HOT_FRACTION-th submission reuses one of ``HOT_WORKLOADS``
    hot cells (same seed -> same cache key -> a hit once warm); the
    rest get a fresh seed and must execute.
    """
    hot_every = max(round(1 / HOT_FRACTION), 1)
    jobs = []
    for i in range(runs):
        if i % hot_every == hot_every - 1:
            hot = i // hot_every % HOT_WORKLOADS
            jobs.append(
                {
                    "benchmark": "fib",
                    "cores": 1 + hot % 4,
                    "params": {"n": 8 + hot % 3},
                    "seed": 1000 + hot,
                }
            )
        else:
            jobs.append(
                {
                    "benchmark": "fib",
                    "cores": 1 + i % 4,
                    "params": {"n": 8 + i % 3},
                    "seed": 100_000 + i,
                }
            )
    return jobs


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th (0..1) percentile by the nearest-rank method."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[rank - 1]


def _summary(seconds: Sequence[float]) -> dict[str, float]:
    if not seconds:
        return {"p50": math.nan, "p99": math.nan, "mean": math.nan, "max": math.nan}
    return {
        "p50": percentile(seconds, 0.50) * 1e3,
        "p99": percentile(seconds, 0.99) * 1e3,
        "mean": sum(seconds) / len(seconds) * 1e3,
        "max": max(seconds) * 1e3,
    }


@dataclass
class _RunOutcome:
    submitted_at: float
    finished_at: float = math.nan
    run_id: str = ""
    cached: bool = False
    retries: int = 0
    failed: bool = False

    @property
    def latency(self) -> float:
        return self.finished_at - self.submitted_at


@dataclass
class LoadResult:
    """Everything one load run measured (the BENCH_serve.json payload)."""

    mode: str
    clients: int
    runs: int
    workers: int
    wall_seconds: float
    outcomes: list[_RunOutcome] = field(default_factory=list)
    run_seconds_total: float = 0.0  # server-side cold execution time
    peak_queue_depth: int = 0
    server_stats: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        done = [o for o in self.outcomes if not o.failed]
        cold = [o.latency for o in done if not o.cached]
        hits = [o.latency for o in done if o.cached]
        latencies = [o.latency for o in done]
        ideal = self.run_seconds_total / max(self.workers, 1)
        p99 = percentile(latencies, 0.99)
        return {
            "schema": BENCH_SERVE_SCHEMA,
            "kind": "repro-bench-serve",
            "mode": self.mode,
            "clients": self.clients,
            "runs": self.runs,
            "workers": self.workers,
            "completed": len(done),
            "failed": sum(o.failed for o in self.outcomes),
            "retries_429": sum(o.retries for o in self.outcomes),
            "cache_hits": len(hits),
            "cache_hit_rate": len(hits) / len(done) if done else 0.0,
            "peak_queue_depth": self.peak_queue_depth,
            "wall_seconds": self.wall_seconds,
            "ideal_seconds": ideal,
            "latency_ms": _summary(latencies),
            "cold_latency_ms": _summary(cold),
            "hit_latency_ms": _summary(hits),
            "throughput_rps": len(done) / self.wall_seconds if self.wall_seconds else 0.0,
            "hit_throughput_rps": len(hits) / self.wall_seconds if self.wall_seconds else 0.0,
            # Machine-transferable gate metrics: latency relative to the
            # ideal makespan of the same invocation's cold work.
            "p99_over_ideal": p99 / ideal if ideal else math.nan,
            "wall_over_ideal": self.wall_seconds / ideal if ideal else math.nan,
            "server_stats": dict(self.server_stats),
        }


def is_bench_serve_payload(payload: Any) -> bool:
    return isinstance(payload, dict) and payload.get("kind") == "repro-bench-serve"


@dataclass(frozen=True)
class GateFailure:
    metric: str
    baseline: float
    current: float
    limit: float

    def __str__(self) -> str:
        return (
            f"{self.metric}: {self.current:.3f} vs baseline {self.baseline:.3f} "
            f"(limit {self.limit:.3f})"
        )


def compare_to_baseline(
    current: Mapping[str, Any], baseline: Mapping[str, Any], *, threshold: float = 3.0
) -> list[GateFailure]:
    """Gate *current* against *baseline* on machine-transferable ratios.

    *threshold* is the allowed multiplier on the baseline's normalized
    latency ratios (CI runners are slower and noisier than the machine
    that committed the baseline, but the *ratio* of latency to ideal
    makespan moves far less than either number alone).  Completion is
    gated absolutely: every submitted run must finish.
    """
    failures = []
    if current.get("completed", 0) < current.get("runs", -1):
        failures.append(
            GateFailure(
                metric="completed-runs",
                baseline=float(current.get("runs", 0)),
                current=float(current.get("completed", 0)),
                limit=float(current.get("runs", 0)),
            )
        )
    if current.get("failed", 0) > 0:
        failures.append(
            GateFailure(metric="failed-runs", baseline=0.0, current=current["failed"], limit=0.0)
        )
    for metric in ("p99_over_ideal", "wall_over_ideal"):
        base = baseline.get(metric)
        cur = current.get(metric)
        if base is None or cur is None or math.isnan(base) or math.isnan(cur):
            continue
        limit = base * threshold
        if cur > limit:
            failures.append(GateFailure(metric=metric, baseline=base, current=cur, limit=limit))
    return failures


# -- the load driver ---------------------------------------------------------


async def _drive(
    host: str, port: int, *, clients: int, jobs: list[dict[str, Any]], tenants: int = 8
) -> tuple[list[_RunOutcome], float, int, dict[str, float], float]:
    from repro.serve.client import ServeClient

    job_queue: asyncio.Queue[tuple[int, dict[str, Any]]] = asyncio.Queue()
    for item in enumerate(jobs):
        job_queue.put_nowait(item)
    outcomes: dict[int, _RunOutcome] = {}
    wait_queue: asyncio.Queue[int] = asyncio.Queue()

    async def submitter(worker: int) -> None:
        client = ServeClient(host, port, tenant=f"load-{worker % tenants}")
        while True:
            try:
                index, payload = job_queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            outcome = outcomes[index] = _RunOutcome(submitted_at=time.perf_counter())
            while True:
                reply = await client.submit_raw(payload)
                if reply.status == 429:
                    outcome.retries += 1
                    await asyncio.sleep(min(reply.retry_after or 0.1, 1.0))
                    continue
                break
            if reply.status not in (200, 202):
                outcome.failed = True
                outcome.finished_at = time.perf_counter()
                continue
            accepted = reply.json()
            outcome.run_id = accepted["id"]
            outcome.cached = accepted["cached"]
            if outcome.cached:  # served straight from the shared cache
                outcome.finished_at = time.perf_counter()
            else:
                wait_queue.put_nowait(index)

    run_seconds_total = 0.0

    async def waiter(worker: int) -> None:
        nonlocal run_seconds_total
        client = ServeClient(host, port, tenant=f"load-{worker % tenants}")
        while True:
            try:
                index = wait_queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            outcome = outcomes[index]
            try:
                status = await client.result(outcome.run_id, timeout=600.0)
            except Exception:
                outcome.failed = True
                outcome.finished_at = time.perf_counter()
                continue
            outcome.finished_at = time.perf_counter()
            outcome.failed = status["state"] != "done"
            run_seconds_total += status.get("run_seconds", 0.0)

    peak_depth = 0
    polling = True

    async def depth_poller() -> None:
        nonlocal peak_depth
        client = ServeClient(host, port)
        while polling:
            try:
                stats = (await client.stats())["counters"]
                depth = int(stats["/serve{locality#0/queue}/depth"])
                peak_depth = max(peak_depth, depth)
            except Exception:
                pass
            await asyncio.sleep(0.1)

    started = time.perf_counter()
    poller = asyncio.ensure_future(depth_poller())
    # Submit everything first (the whole run list lands in the server
    # queue), then the same client pool drains the completions.
    await asyncio.gather(*(submitter(i) for i in range(clients)))
    await asyncio.gather(*(waiter(i) for i in range(clients)))
    wall = time.perf_counter() - started
    polling = False
    client = ServeClient(host, port)
    server_stats = (await client.stats())["counters"]
    poller.cancel()
    try:
        await poller
    except asyncio.CancelledError:
        pass
    ordered = [outcomes[i] for i in sorted(outcomes)]
    return ordered, wall, peak_depth, server_stats, run_seconds_total


def run_bench_serve(
    mode: str = "quick",
    *,
    clients: int | None = None,
    runs: int | None = None,
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    progress: Any = None,
) -> LoadResult:
    """Spawn a server and push the load through it."""
    from repro.serve.testing import spawn_server

    shape = MODES[mode]
    clients = clients if clients is not None else shape["clients"]
    runs = runs if runs is not None else shape["runs"]
    workers = workers if workers is not None else shape["workers"]
    jobs = build_jobs(runs)
    owned_tmp = tempfile.TemporaryDirectory() if cache_dir is None else None
    cache_root = Path(cache_dir) if cache_dir is not None else Path(owned_tmp.name)
    try:
        if progress:
            progress(f"spawning repro serve ({workers} workers, {runs} runs, {clients} clients)")
        with spawn_server(
            workers=workers,
            max_queue=max(2 * runs, 512),
            cache_dir=cache_root,
            quota_rate=10_000.0,  # the bench measures the queue, not the quota
            quota_burst=10_000.0,
        ) as server:
            outcomes, wall, peak_depth, stats, run_seconds = asyncio.run(
                _drive(server.host, server.port, clients=clients, jobs=jobs)
            )
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()
    return LoadResult(
        mode=mode,
        clients=clients,
        runs=runs,
        workers=workers,
        wall_seconds=wall,
        outcomes=outcomes,
        run_seconds_total=run_seconds,
        peak_queue_depth=peak_depth,
        server_stats=stats,
    )


def render(payload: Mapping[str, Any]) -> str:
    lines = [
        f"bench-serve [{payload['mode']}]: {payload['completed']}/{payload['runs']} runs, "
        f"{payload['clients']} clients, {payload['workers']} workers, "
        f"{payload['wall_seconds']:.2f}s wall",
        f"  latency ms     p50 {payload['latency_ms']['p50']:9.1f}   "
        f"p99 {payload['latency_ms']['p99']:9.1f}   max {payload['latency_ms']['max']:9.1f}",
        f"  cold ms        p50 {payload['cold_latency_ms']['p50']:9.1f}   "
        f"p99 {payload['cold_latency_ms']['p99']:9.1f}",
        f"  cache hits     {payload['cache_hits']} ({payload['cache_hit_rate']:.0%}), "
        f"hit p50 {payload['hit_latency_ms']['p50']:.1f} ms, "
        f"hit throughput {payload['hit_throughput_rps']:.0f} runs/s",
        f"  throughput     {payload['throughput_rps']:.1f} runs/s "
        f"(peak queue depth {payload['peak_queue_depth']}, "
        f"429 retries {payload['retries_429']})",
        f"  gate ratios    p99/ideal {payload['p99_over_ideal']:.3f}, "
        f"wall/ideal {payload['wall_over_ideal']:.3f}",
    ]
    return "\n".join(lines)
