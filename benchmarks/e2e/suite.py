"""The workloads of the end-to-end benchmark.

Each workload is a fixed list of runs, repeated in *passes*.  A pass
returns its host wall and CPU time plus one :class:`Record` per run
(or per campaign cell) carrying the run's digest, so every pass is
checked against the committed outputs or against the other passes.

The workloads stress different layers (see ``README.md``):

- ``fine-exact``: ~1 µs tasks, where the event loop, interpreter,
  scheduler and resource model take the host time;
- ``coarse-kernels``: real numpy task bodies take the host time, the
  control for any event-core or scheduler change;
- ``observed``: the ProbeBus subscribers (profiler, periodic telemetry)
  and the std abort path with a query in flight;
- ``campaign``: many short cells into a fresh result cache through a
  two-process pool, where per-run fixed costs dominate;
- ``campaign-hit``: the same cells re-read from a filled cache.

The seed reaches every run as its ``seed`` workload parameter (campaign
cells use ``seed + sample``).  Inputs are chosen so their cost and
their std aborts do not depend on the seed: the UTS trees are wide and
shallow (~1% spread in node count across seeds), and the runs expected
to abort exhaust the std thread budget whatever the seed.

Importing this module does not import ``repro``; :func:`setup` does,
so a fresh process can time the import as part of set-up.
"""

from __future__ import annotations

import io
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

DEFAULT_SEED = 20160523

#: BLAS/OpenMP pools pinned to one thread: a sparselu or strassen task
#: body must not use the second core behind the simulator's back.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: Per-worker wildcard counters read by the periodic queries.
WORKER_COUNTERS = (
    "/threads{locality#0/worker-thread#*}/count/cumulative",
    "/threads{locality#0/worker-thread#*}/time/cumulative",
    "/threads{locality#0/worker-thread#*}/idle-rate",
)
QUERY_INTERVAL_NS = 10_000

#: Pool size of the campaign workloads (the machine this benchmark was
#: sized on has two cores).
CAMPAIGN_JOBS = 2


@dataclass
class Record:
    """The outcome of one run (a ``Session.run`` or a campaign cell)."""

    label: str
    digest: str | None  # None: the run raised
    aborted: bool = False
    verified: bool = False
    exact: bool = True
    runtime: str = ""
    events: int = 0
    tasks: int = 0
    wall_s: float = 0.0


@dataclass
class Pass:
    """One pass of a workload: timings plus a record per run."""

    wall_s: float
    cpu_s: float
    records: list[Record]
    run_wall_s: float = 0.0  # summed wall of the exact-mode runs

    def rate(self, attr: str) -> float:
        """Exact-mode events or tasks per second of run wall time."""
        total = sum(getattr(r, attr) for r in self.records if r.exact)
        return total / self.run_wall_s if self.run_wall_s > 0 else 0.0


def run_digest(workload: str, result: Any) -> str:
    """Digest of everything a run reports (the correctness gate)."""
    from repro.campaign.spec import stable_hash

    profile = result.profile.to_json_dict() if result.profile is not None else None
    telemetry = result.telemetry.to_rows() if result.telemetry is not None else None
    return stable_hash(
        {
            "workload": workload,
            "runtime": result.runtime,
            "cores": result.cores,
            "mode": result.mode,
            "exec_time_ns": result.exec_time_ns,
            "engine_events": result.engine_events,
            "tasks_executed": result.tasks_executed,
            "aborted": result.aborted,
            "counters": result.counters,
            "telemetry": telemetry,
            "profile": profile,
        }
    )


def cell_digest(cell_json: dict[str, Any]) -> str:
    """Digest of one campaign cell, without its version-bearing cache key."""
    from repro.campaign.spec import stable_hash

    return stable_hash({k: v for k, v in cell_json.items() if k != "key"})


def _failed(label: str) -> Record:
    traceback.print_exc()
    return Record(label=label, digest=None)


# -- Session workloads ---------------------------------------------------------


def _profile_what_if() -> dict[str, Any]:
    from repro.profiler.builder import ProfileConfig
    from repro.profiler.whatif import parse_what_if

    return {"profile": ProfileConfig(what_if=(parse_what_if("body=fib,speedup=50"),))}


def _worker_query() -> dict[str, Any]:
    from repro.telemetry.pipeline import TelemetryConfig
    from repro.telemetry.sinks import JsonLinesSink

    return {
        "telemetry": TelemetryConfig(
            counters=WORKER_COUNTERS,
            interval_ns=QUERY_INTERVAL_NS,
            sinks=(JsonLinesSink(io.StringIO()),),
        )
    }


def _telemetry_and_profile() -> dict[str, Any]:
    from repro.telemetry.pipeline import TelemetryConfig
    from repro.telemetry.sinks import JsonLinesSink

    return {"telemetry": TelemetryConfig(sinks=(JsonLinesSink(io.StringIO()),)), "profile": True}


@dataclass(frozen=True)
class Run:
    """One ``Session.run`` of a pass."""

    workload: str  # canonical WorkloadSpec spelling
    runtime: str
    cores: int
    #: Fresh ``Session.run`` keyword arguments for each call.
    options: Callable[[], dict[str, Any]] = dict

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.runtime}/{self.cores}"


@dataclass
class SessionState:
    seed: int
    sessions: list[Any]
    specs: list[Any]


@dataclass(frozen=True)
class SessionWorkload:
    """A closed loop of ``Session.run`` calls, one at a time."""

    name: str
    runs: tuple[Run, ...]

    def setup(self, seed: int) -> SessionState:
        """Resolve the entries, build the Sessions, lower every run once."""
        from repro.api import Session
        from repro.workloads import WorkloadSpec, get_workload

        sessions, specs = [], []
        for run in self.runs:
            spec = WorkloadSpec.parse(run.workload)
            get_workload(spec.name)
            spec.build({"seed": seed})
            sessions.append(Session(runtime=run.runtime, cores=run.cores))
            specs.append(spec)
        return SessionState(seed, sessions, specs)

    def warmup(self, state: SessionState, work_dir: Path) -> None:
        """One untimed pass of the same runs at the ``small`` preset."""
        from repro.workloads import WorkloadSpec, workload_preset_params

        for run, session, spec in zip(self.runs, state.sessions, state.specs):
            params = workload_preset_params(spec.name, "small")
            params["seed"] = state.seed
            session.run(WorkloadSpec(spec.name), params=params, **run.options())

    def run_pass(self, state: SessionState, *, serial: bool = False) -> Pass:
        records = []
        wall = cpu = run_wall = 0.0
        for run, session, spec in zip(self.runs, state.sessions, state.specs):
            options = run.options()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = session.run(spec, params={"seed": state.seed}, **options)
            except Exception:
                records.append(_failed(run.label))
                continue
            finally:
                dt = time.perf_counter() - t0
                wall += dt
                cpu += time.process_time() - c0
            records.append(
                Record(
                    label=run.label,
                    digest=run_digest(run.workload, result),
                    aborted=result.aborted,
                    verified=result.verified,
                    exact=result.mode == "exact",
                    runtime=result.runtime,
                    events=result.engine_events,
                    tasks=result.tasks_executed,
                    wall_s=dt,
                )
            )
            if result.mode == "exact":
                run_wall += dt
        return Pass(wall_s=wall, cpu_s=cpu, records=records, run_wall_s=run_wall)

    def replay(self, state: SessionState) -> tuple[int, float]:
        """Record each exact run's event stream, then replay it queue-only.

        Returns ``(events replayed, seconds)``: the event core alone,
        through the public :func:`repro.simcore.record.replay_stream`.
        """
        from repro.api import Session
        from repro.simcore.events import Engine
        from repro.simcore.record import RecordingEngine, replay_stream

        events, seconds = 0, 0.0
        for run, spec in zip(self.runs, state.specs):
            engines: list[RecordingEngine] = []

            def recording() -> RecordingEngine:
                engines.append(RecordingEngine())
                return engines[-1]

            session = Session(runtime=run.runtime, cores=run.cores, engine_factory=recording)
            result = session.run(spec, params={"seed": state.seed}, **run.options())
            if result.mode != "exact":
                continue
            for engine in engines:
                t0 = time.perf_counter()
                _, _, processed = replay_stream(engine.groups, engine.delays, Engine)
                seconds += time.perf_counter() - t0
                events += processed
        return events, seconds


# -- campaign workloads --------------------------------------------------------

#: Matrix A: many short cells on both runtimes.  ``fib:n=17`` and the
#: seven-level ``health`` exhaust the std thread budget at every core
#: count, so their std cells are the expected aborts.
MATRIX_A: dict[str, Any] = {
    "benchmarks": (
        "fib:n=17",
        "health:branching=4,levels=7,steps=1",
        "sort",
        "strassen",
        "taskbench:shape=stencil_1d,steps=16,width=16",
        "uts",
    ),
    "runtimes": ("hpx", "std"),
    "core_counts": (1, 2, 4, 8),
    "samples": 2,
    "preset": "small",
}
#: Matrix B: paper-scale inputs through the cohort engine.
MATRIX_B: dict[str, Any] = {
    "benchmarks": ("fib", "taskbench:shape=trivial", "uts"),
    "runtimes": ("hpx",),
    "core_counts": (20,),
    "samples": 2,
    "preset": "paper",
    "params": {"mode": "cohort"},
}
MATRICES = (("A", MATRIX_A), ("B", MATRIX_B))


@dataclass
class CampaignState:
    seed: int
    specs: list[tuple[str, Any]]
    work_dir: Path
    cache_dir: Path | None = None
    passes: int = 0


def _children_cpu_s() -> float:
    import resource

    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass(frozen=True)
class CampaignWorkload:
    """``run_campaign`` over both matrices; ``hit`` re-reads a filled cache."""

    name: str
    hit: bool

    def setup(self, seed: int) -> CampaignState:
        """Build the specs, key every cell, lower every cell's workload once."""
        from repro.campaign.spec import CampaignSpec, cell_cache_key
        from repro.workloads import WorkloadSpec

        specs = []
        for matrix, fields in MATRICES:
            spec = CampaignSpec(seed=seed, **fields)
            for cell in spec.cells():
                cell_cache_key(spec, cell)
                WorkloadSpec.parse(cell.benchmark).build(spec.cell_params(cell))
            specs.append((matrix, spec))
        return CampaignState(seed, specs, Path("."))

    def warmup(self, state: CampaignState, work_dir: Path) -> None:
        """Cold: run each matrix's one-core cells once, serially and uncached.

        Hit: fill the cache the passes re-read.
        """
        from dataclasses import replace

        from repro.campaign.engine import run_campaign

        state.work_dir = work_dir
        if self.hit:
            state.cache_dir = work_dir / "cache-hit"
            self._campaign(state, state.cache_dir, CAMPAIGN_JOBS)
            return
        for _, spec in state.specs:
            run_campaign(replace(spec, core_counts=spec.core_counts[:1], samples=1), jobs=1)

    def _campaign(self, state: CampaignState, cache_dir: Path, jobs: int) -> list[Record]:
        from repro.campaign.cache import ResultCache
        from repro.campaign.engine import run_campaign

        cache = ResultCache(cache_dir)
        records = []
        for matrix, spec in state.specs:
            artifact = run_campaign(spec, jobs=jobs, cache=cache).artifact
            for cell_result in artifact.cells:
                cell = cell_result.to_json_dict()
                result = cell["result"]
                records.append(
                    Record(
                        label=f"{matrix}:{cell_result.cell.label()}",
                        digest=cell_digest(cell),
                        aborted=result["aborted"],
                        verified=result["verified"],
                        exact=result["mode"] == "exact",
                        runtime=cell["runtime"],
                        events=result["engine_events"],
                        tasks=result["tasks_executed"],
                    )
                )
        return records

    def run_pass(self, state: CampaignState, *, serial: bool = False) -> Pass:
        """One campaign over both matrices.

        Cold (``hit=False``): into a fresh cache through a pool of
        :data:`CAMPAIGN_JOBS` processes, or in-process with ``serial``.
        Hit: every cell is a cache hit, so no pool starts.
        """
        jobs = 1 if serial else CAMPAIGN_JOBS
        if self.hit:
            cache_dir = state.cache_dir
        else:
            state.passes += 1
            cache_dir = state.work_dir / f"cache-{state.passes}"
        c0 = time.process_time()
        k0 = _children_cpu_s()
        t0 = time.perf_counter()
        try:
            records = self._campaign(state, cache_dir, jobs)
        except Exception:
            records = [_failed(f"{self.name}:campaign")]
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0 + _children_cpu_s() - k0
        if not self.hit:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return Pass(wall_s=wall, cpu_s=cpu, records=records, run_wall_s=wall)


WORKLOADS: dict[str, Any] = {
    wl.name: wl
    for wl in (
        SessionWorkload(
            "fine-exact",
            (
                Run("fib:n=20", "hpx", 8),
                Run("uts:b0=1000,m=2,max_depth=5,q=0.9", "hpx", 8),
                Run("health:branching=4,levels=6,steps=10", "hpx", 8),
            ),
        ),
        SessionWorkload(
            "coarse-kernels",
            tuple(
                Run(name, runtime, 8)
                for name in ("alignment", "sparselu", "strassen", "pyramids", "sort", "fft")
                for runtime in ("hpx", "std")
            ),
        ),
        SessionWorkload(
            "observed",
            (
                Run("fib:n=18", "hpx", 4, _profile_what_if),
                Run("health:branching=4,levels=5,steps=10", "hpx", 8, _worker_query),
                Run("fib:n=18", "hpx", 8, _worker_query),
                Run("sort", "std", 8, _telemetry_and_profile),
                # Aborts on the std thread budget with the query in flight.
                Run("uts:b0=2000,m=2,max_depth=5,q=0.9", "std", 8, _worker_query),
            ),
        ),
        CampaignWorkload("campaign", hit=False),
        CampaignWorkload("campaign-hit", hit=True),
    )
}
