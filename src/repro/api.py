"""One run description, one executor — the front door of the reproduction.

A frozen :class:`RunSpec` holds every input that can change a byte of
one run's result.  ``Session.run``'s keywords, campaign cells, ``POST
/runs`` bodies and the CLI all build one, validate it and key it the
same way, and :meth:`Session.run` executes it::

    from repro.api import Session, TelemetryConfig, WorkloadSpec

    session = Session(runtime="hpx", cores=8)
    result = session.run(
        WorkloadSpec.parse("fib"),
        telemetry=TelemetryConfig(counters=("/threads{locality#0/total}/idle-rate",)),
    )
    print(result.exec_time_ms, result.counters)

A :class:`Session` fixes the environment (runtime, default core count,
platform) and the event-engine factory; each run executes on a fresh
engine and machine, so runs never share simulated state and remain
bit-for-bit deterministic.  Both runtimes implement
:class:`repro.exec.backend.SchedulerBackend`, so the run path is the
same for either: build the backend, attach the counter stack to its
probe bus, run the engine, read the results.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.counters.base import CounterEnvironment
from repro.counters.names import parse_counter_name
from repro.counters.providers import build_registry, provider_identity
from repro.exec.cohort import CohortEngine
from repro.exec.errors import DeadlockError
from repro.exec.modes import CohortIneligibleError, ExecutionMode, resolve_mode
from repro.inncabs.base import effective_locality_factor
from repro.kernel.config import StdParams, default_std_params
from repro.kernel.scheduler import StdRuntime
from repro.papi.hw import PapiSubstrate
from repro.platform.presets import default_platform, resolve_platform
from repro.platform.spec import PlatformSpec
from repro.profiler.builder import ProfileBuilder, ProfileConfig
from repro.profiler.events import TRACE_EVENT_NS
from repro.profiler.report import RunProfile
from repro.profiler.whatif import (
    BodyRewriter,
    WhatIfResult,
    WhatIfSpec,
    predict_makespan_ns,
    resolve_body,
)
from repro.runtime.config import HpxParams
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine
from repro.simcore.topology import check_workers
from repro.telemetry.frame import TelemetryFrame
from repro.telemetry.pipeline import (
    DEFAULT_BUFFER_LIMIT,
    DEFAULT_COUNTERS,
    TelemetryConfig,
    TelemetryPipeline,
)
from repro.workloads import WorkloadSpec, as_workload_spec, get_workload

__all__ = ["ProfileConfig", "RunResult", "RunSpec", "Session", "TelemetryConfig", "WorkloadSpec"]

#: The runtime kinds: the HPX-style task runtime and ``std::async``.
RUNTIMES = ("hpx", "std")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding used for hashing and artifacts."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of *obj*."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


@functools.cache
def source_digest() -> str:
    """SHA-256 over every ``repro/**/*.py`` source, computed once per process.

    Part of every :meth:`RunSpec.key`: any edit to the simulator's
    source is a new key, so a cached result never outlives the code
    that produced it.
    """
    root = Path(__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


@dataclass(frozen=True)
class RunSpec:
    """Every input that can change a byte of one run's result.

    ``params`` are the workload's fully overlaid parameter overrides,
    seed included; a ``mode`` among them moves to the ``mode`` field,
    which wins when both are given.  ``costs`` is the cost model of the
    run's runtime (``None``: that runtime's default).  ``counters=None``
    collects the paper's set and ``()`` turns instrumentation off;
    ``interval_ns`` also samples them periodically, in-band, into a
    buffer of ``buffer_limit`` samples.  ``profile`` attaches the causal
    profiler, and each ``what_if`` experiment (a :class:`WhatIfSpec` or
    a ``(body, speedup_pct)`` pair) replays the run with one body's work
    cost cut; a ``/profiler`` counter or a what-if implies
    ``profile=True``.
    """

    workload: str
    params: Mapping[str, Any] = field(default_factory=dict)
    runtime: str = "hpx"
    cores: int = 1
    platform: PlatformSpec = field(default_factory=default_platform)
    costs: HpxParams | StdParams | None = None
    mode: str | ExecutionMode | None = None
    counters: tuple[str, ...] | None = None
    interval_ns: int | None = None
    buffer_limit: int = DEFAULT_BUFFER_LIMIT
    profile: bool = False
    what_if: tuple[WhatIfSpec, ...] = ()

    def __post_init__(self) -> None:
        params = dict(self.params)
        param_mode = params.pop("mode", None)
        set_ = object.__setattr__
        set_(self, "params", params)
        set_(self, "mode", resolve_mode(param_mode if self.mode is None else self.mode).value)
        set_(self, "platform", resolve_platform(self.platform))
        if self.costs is None:
            set_(self, "costs", HpxParams() if self.runtime == "hpx" else default_std_params())
        if self.counters is not None:
            set_(self, "counters", tuple(self.counters))
        set_(self, "what_if", tuple(map(_what_if_spec, self.what_if)))
        if self.what_if or _names_profiler(self.counters):
            set_(self, "profile", True)

    def validate(self) -> dict[str, Any]:
        """Refuse a run that can only fail, before any simulation state exists.

        Checks the runtime and its cost model, the cores against the
        platform, the workload and its parameters (seed included), the
        mode with cohort eligibility, the profile-versus-cohort rule and
        the counter-name grammar.  Unknown presets fail earlier, where
        the parameters are overlaid.  Builds no counter registry: every
        registry build scans the installed entry points.  Raises
        :class:`ValueError`; returns the workload's parameters overlaid
        on its defaults, which is what the run builds from.
        """
        if self.runtime not in RUNTIMES:
            raise ValueError(f"unknown runtime {self.runtime!r}; expected one of {RUNTIMES}")
        if type(self.costs) is not (HpxParams if self.runtime == "hpx" else StdParams):
            raise ValueError(
                f"{type(self.costs).__name__} is not the cost model of runtime {self.runtime!r}"
            )
        for name in ("cores", "interval_ns", "buffer_limit"):
            value = getattr(self, name)
            if value is None and name == "interval_ns":
                continue
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        check_workers(self.platform, self.cores)
        seed = self.params.get("seed")
        if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        try:
            bench = get_workload(self.workload).benchmark
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
        merged = bench.params_with_defaults(self.params)
        if self.mode == ExecutionMode.COHORT.value:
            if self.profile:
                raise CohortIneligibleError(
                    "causal profiling and what-if replays are exact-mode only: cohort "
                    "runs collapse task populations and have no per-task DAG to "
                    "profile or rewrite; run with mode='exact'"
                )
            if bench.cohort_plan(merged) is None:
                raise CohortIneligibleError(
                    f"workload {self.workload!r} declares no cohort plan for these "
                    "parameters; run it in exact mode"
                )
        for name in self.counters or ():
            parse_counter_name(name)
        if self.interval_ns is not None and self.counters == ():
            raise ValueError("periodic queries need counters; counters=() turns them off")
        return merged

    def to_json(self) -> dict[str, Any]:
        """The JSON form (plain dicts, lists and scalars)."""
        return {
            "workload": self.workload,
            "params": dict(self.params),
            "runtime": self.runtime,
            "cores": self.cores,
            "platform": self.platform.to_json_dict(),
            "costs": asdict(self.costs),
            "mode": self.mode,
            "counters": None if self.counters is None else list(self.counters),
            "interval_ns": self.interval_ns,
            "buffer_limit": self.buffer_limit,
            "profile": self.profile,
            "what_if": [[w.body, w.speedup_pct] for w in self.what_if],
        }

    def key(self) -> str:
        """Content-addressed result-cache key of this run.

        A SHA-256 over :meth:`to_json`, the counter-provider identity
        of the workload (built-ins, the workload's own providers and
        the installed entry points: what a run can collect) and
        :func:`source_digest`.
        """
        return stable_hash(
            {
                "run": self.to_json(),
                "counter_providers": list(provider_identity(workload=self.workload)),
                "source": source_digest(),
            }
        )


def _what_if_spec(entry: WhatIfSpec | tuple[str, float]) -> WhatIfSpec:
    """*entry* as a :class:`WhatIfSpec`; a ``(body, speedup_pct)`` pair is coerced."""
    if isinstance(entry, WhatIfSpec):
        return entry
    if (
        isinstance(entry, (tuple, list))
        and len(entry) == 2
        and isinstance(entry[0], str)
        and isinstance(entry[1], (int, float))
        and not isinstance(entry[1], bool)
    ):
        return WhatIfSpec(*entry)
    raise ValueError(
        f"what-if experiment must be a WhatIfSpec or a (body, speedup_pct) pair, got {entry!r}"
    )


@dataclass
class RunResult:
    """Outcome of one run: one cell of the paper's experiment matrix.

    Wall time, verification, the counter values sampled exactly as the
    paper does with ``hpx::evaluate_active_counters`` /
    ``reset_active_counters``, and the process statistics.
    ``telemetry`` is the run's sample frame (periodic rows plus the
    final evaluation; ``None`` when instrumentation is off) and
    ``counters`` its final evaluation as a ``{name: value}`` dict.
    ``profile`` is the causal profile of a profiled run: a
    :class:`~repro.profiler.report.RunProfile`, or its summary dict
    once read back with :meth:`from_json`.
    """

    benchmark: str
    runtime: str  # "hpx" | "std"
    cores: int
    mode: str = "exact"  # execution mode: "exact" | "cohort"
    aborted: bool = False
    abort_reason: str | None = None
    exec_time_ns: int = 0
    verified: bool = False
    result: Any = None
    counters: dict[str, float] = field(default_factory=dict)
    telemetry: TelemetryFrame | None = None
    tasks_executed: int = 0
    tasks_created: int = 0
    peak_live_tasks: int = 0
    offcore_bytes: int = 0
    engine_events: int = 0
    profile: RunProfile | dict[str, Any] | None = None

    @property
    def exec_time_us(self) -> float:
        return self.exec_time_ns / 1_000

    @property
    def exec_time_ms(self) -> float:
        return self.exec_time_ns / 1_000_000

    def counter(self, name: str) -> float:
        """Counter value by exact name; raises KeyError listing names."""
        try:
            return self.counters[name]
        except KeyError:
            known = "\n  ".join(self.counters)
            raise KeyError(f"no counter {name!r} in result; collected:\n  {known}") from None

    def to_json(self) -> dict[str, Any]:
        """The JSON form campaign cells, the result cache and serve store.

        The run's identity (workload, runtime, cores) belongs to its
        :class:`RunSpec`; ``counters`` is derived from the telemetry
        rows on load; ``result`` is not serializable and is dropped.
        """
        profile = self.profile
        return {
            "mode": self.mode,
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
            "exec_time_ns": self.exec_time_ns,
            "verified": self.verified,
            "telemetry": self.telemetry.to_rows() if self.telemetry is not None else [],
            "tasks_executed": self.tasks_executed,
            "tasks_created": self.tasks_created,
            "peak_live_tasks": self.peak_live_tasks,
            "offcore_bytes": self.offcore_bytes,
            "engine_events": self.engine_events,
            "profile": profile.to_json_dict() if isinstance(profile, RunProfile) else profile,
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any], spec: RunSpec) -> RunResult:
        """Rebuild the result of *spec*'s run from its :meth:`to_json` form.

        As the live run does, the result names the bare workload, has a
        frame only when *spec* collects counters and has counter totals
        only when it finished.
        """
        frame = TelemetryFrame.from_rows(data["telemetry"])
        return cls(
            benchmark=spec.workload,
            runtime=spec.runtime,
            cores=spec.cores,
            **{**data, "telemetry": None if spec.counters == () else frame},
            counters={} if data["aborted"] else frame.totals(),
        )


class Session:
    """A configured simulation environment; ``run()`` executes runs.

    Parameters
    ----------
    runtime:
        ``"hpx"`` for the HPX-style user-level task runtime, ``"std"``
        for the ``std::async`` kernel-thread model.
    cores:
        Default worker/core count for :meth:`run` (overridable per run).
    platform:
        The simulated node: a preset name (``"epyc-2x64"``), a path to
        a platform file (``.toml``/``.json``), or a
        :class:`~repro.platform.spec.PlatformSpec`.  Defaults to the
        paper's Table III node (``"ivybridge-2x10"``).
    engine_factory:
        Zero-argument callable building the discrete-event engine for
        each run.  Defaults to :class:`repro.simcore.events.Engine`;
        the engine-identity tests pass the legacy heap engine (a test
        oracle) here, and a :class:`repro.simcore.record.RecordingEngine`
        captures a run's event stream this way.
    """

    def __init__(
        self,
        *,
        runtime: str = "hpx",
        cores: int = 1,
        platform: PlatformSpec | str | None = None,
        engine_factory: Callable[[], Any] | None = None,
    ) -> None:
        if runtime not in RUNTIMES:
            raise ValueError(f"unknown runtime {runtime!r}; expected one of {RUNTIMES}")
        self.runtime = runtime
        self.cores = cores
        self.platform = resolve_platform(platform)
        self.engine_factory: Callable[[], Any] = engine_factory or Engine

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session(runtime={self.runtime!r}, cores={self.cores})"

    # ------------------------------------------------------------------

    def spec(
        self,
        workload: WorkloadSpec,
        *,
        params: Mapping[str, Any] | None = None,
        cores: int | None = None,
        mode: str | ExecutionMode | None = None,
        telemetry: TelemetryConfig | None = None,
        profile: ProfileConfig | bool | None = None,
    ) -> RunSpec:
        """The :class:`RunSpec` that :meth:`run` executes for these arguments.

        ``params=`` overlays the parameters embedded in *workload*; the
        session supplies the runtime (with its default cost model), the
        platform and the default core count.
        """
        workload = as_workload_spec(workload)
        tele = telemetry if telemetry is not None else TelemetryConfig()
        prof = ProfileConfig.coerce(profile)
        return RunSpec(
            workload=workload.name,
            params={**workload.params, **(params or {})},
            runtime=self.runtime,
            cores=self.cores if cores is None else cores,
            platform=self.platform,
            mode=mode,
            counters=tele.counters,
            interval_ns=tele.interval_ns,
            buffer_limit=tele.buffer_limit,
            profile=prof is not None,
            what_if=prof.what_if if prof is not None else (),
        )

    def run(
        self,
        workload: WorkloadSpec | RunSpec,
        *,
        params: Mapping[str, Any] | None = None,
        cores: int | None = None,
        mode: str | ExecutionMode | None = None,
        telemetry: TelemetryConfig | None = None,
        profile: ProfileConfig | bool | None = None,
        keep_result: bool = False,
        on_sample: Callable[[list[Any]], None] | None = None,
        _rewrite: BodyRewriter | None = None,
    ) -> RunResult:
        """Run one workload to completion; returns a :class:`RunResult`.

        *workload* is a :class:`RunSpec`, which describes the whole run,
        or a :class:`~repro.workloads.WorkloadSpec` that :meth:`spec`
        turns into one with the other arguments: ``params=`` overlays
        the spec's own parameters, ``mode`` (``"exact"`` or
        ``"cohort"``, see :mod:`repro.exec.modes`) wins over a ``mode``
        parameter, ``telemetry`` selects the counters, sampling
        interval and buffer, and ``profile`` attaches the causal
        profiler (a :class:`~repro.profiler.builder.ProfileConfig`, or
        ``True``).  The run is validated before any simulation state
        is built.  A task body that raises, and whose exception no
        waiting task catches, ends the run with
        :class:`~repro.exec.errors.TaskFailed` naming the task, the
        body's exception as its ``__cause__``.

        Every counter reading flows through one
        :class:`~repro.telemetry.pipeline.TelemetryPipeline`: the result
        carries the sample frame as ``result.telemetry`` and its final
        totals as ``result.counters``.  Observers change neither the run
        nor its key: the telemetry sinks stream every sample,
        ``on_sample`` receives each periodic evaluation (a list of
        :class:`~repro.counters.types.CounterValue`, as
        ``--hpx:print-counter-interval`` prints them), ``keep_result``
        keeps the workload's return value on ``result.result``.

        A profiled run carries a
        :class:`~repro.profiler.report.RunProfile` as ``result.profile``
        and each what-if experiment is validated by replaying the run
        through this method with rewritten work costs.  A profiled run
        is *not* bit-identical to an unprofiled one: the profiler adds
        :data:`~repro.profiler.events.TRACE_EVENT_NS` to the charge paid
        per hpx activation or std dispatch.  A replay pays that charge
        too, with its counters and query interval, but folds no trace
        (unless a ``/profiler`` counter needs the live builder) and
        reports only its makespan.
        """
        if isinstance(workload, RunSpec):
            if any(arg is not None for arg in (params, cores, mode, telemetry, profile)):
                raise TypeError(
                    "a RunSpec describes the whole run: pass params, cores, mode, "
                    "telemetry and profile through it"
                )
            spec, sinks, keep_events = workload, (), False
        else:
            spec = self.spec(
                workload,
                params=params,
                cores=cores,
                mode=mode,
                telemetry=telemetry,
                profile=profile,
            )
            sinks = telemetry.sinks if telemetry is not None else ()
            keep_events = isinstance(profile, ProfileConfig) and profile.keep_events
        merged = spec.validate()
        ncores = spec.cores
        bench = get_workload(spec.workload).benchmark
        root_fn, root_args = bench.make_root(merged)
        plan = bench.cohort_plan(merged) if spec.mode == ExecutionMode.COHORT.value else None

        engine = self.engine_factory()
        machine = Machine(spec.platform)
        out = RunResult(benchmark=spec.workload, runtime=spec.runtime, cores=ncores, mode=spec.mode)

        rt: Any
        if spec.runtime == "hpx":
            rt = HpxRuntime(
                engine,
                machine,
                num_workers=ncores,
                params=spec.costs,
                locality_traffic_factor=effective_locality_factor(
                    bench.info.hpx_locality_factor, ncores
                ),
            )
        else:
            rt = StdRuntime(engine, machine, num_workers=ncores, params=spec.costs)

        builder: ProfileBuilder | None = None
        if spec.profile and (_rewrite is None or _names_profiler(spec.counters)):
            builder = ProfileBuilder(rt, keep_events=keep_events)
            builder.attach()
        elif spec.profile:
            # A what-if replay is timed, not profiled: the same charge, no fold.
            rt.add_instrumentation(TRACE_EVENT_NS)
        if _rewrite is not None:
            rt.set_compute_rewriter(_rewrite)

        pipeline: TelemetryPipeline | None = None
        if spec.counters != ():
            env = CounterEnvironment(
                engine=engine,
                runtime=rt,
                machine=machine,
                papi=PapiSubstrate(machine),
                profiler=builder,
            )
            registry = build_registry(env, workload=spec.workload)
            pipeline = TelemetryPipeline(
                registry,
                DEFAULT_COUNTERS if spec.counters is None else spec.counters,
                run_id=f"{spec.workload}/{spec.runtime}/c{ncores}",
                sinks=sinks,
                buffer_limit=spec.buffer_limit,
            )
            pipeline.start()
            pipeline.reset()
            if spec.interval_ns is not None:
                from repro.counters.query import PeriodicQuery

                PeriodicQuery(
                    pipeline,
                    engine=engine,
                    runtime=rt,
                    interval_ns=spec.interval_ns,
                    sink=on_sample,
                ).start()

        if plan is not None:
            future = CohortEngine(rt, machine).submit(plan)
        else:
            future = rt.submit(root_fn, *root_args)
        engine.run()
        out.exec_time_ns = engine.now
        out.engine_events = engine.events_processed
        out.tasks_executed = rt.stats.tasks_executed
        out.tasks_created = rt.stats.tasks_created
        out.peak_live_tasks = rt.stats.peak_live_tasks
        if rt.aborted:
            out.aborted = True
            out.abort_reason = rt.abort_reason
        elif not future.is_ready:
            raise DeadlockError(rt.describe_stall())
        if _rewrite is not None:
            return out  # a what-if replay is read for its makespan alone
        if out.aborted:
            if pipeline is not None:
                out.telemetry = pipeline.frame  # periodic samples up to the abort
                pipeline.stop()
                pipeline.close()
            if builder is not None:
                builder.detach()
                # Partial profile up to the abort; no what-if replays.
                out.profile = builder.finalize(
                    workload=_profile_label(spec),
                    runtime=spec.runtime,
                    cores=ncores,
                    makespan_ns=engine.now,
                )
            return out
        try:
            result = future.value()
        except Exception as exc:  # a task body raised: name it
            raise rt.task_failed(exc) from exc
        if pipeline is not None:
            values = pipeline.sample(reset=True)
            out.counters = {v.name: v.value for v in values}
            out.telemetry = pipeline.frame
            pipeline.stop()
            pipeline.close()

        # Mean-value plans resolve to expectations, not the exact
        # benchmark output; verification only applies to exact results.
        if plan is not None and not plan.exact:
            out.verified = True
        else:
            out.verified = bench.verify(result, merged)
        if keep_result:
            out.result = result
        out.offcore_bytes = machine.total_offcore_bytes()

        if builder is not None:
            builder.detach()
            out.profile = builder.finalize(
                workload=_profile_label(spec),
                runtime=spec.runtime,
                cores=ncores,
                makespan_ns=out.exec_time_ns,
                what_if=tuple(self._run_what_ifs(spec, builder, out)),
            )
        return out

    def _run_what_ifs(
        self, spec: RunSpec, builder: ProfileBuilder, baseline: RunResult
    ) -> list[WhatIfResult]:
        """Validate each what-if experiment with a cost-rewritten replay.

        The replay runs the same :class:`RunSpec` without the
        experiments: the same counters and query interval, and the
        profiler's instrumentation charge, so the 0 % experiment is
        bit-identical to the baseline.  It has no observers, so none of
        its samples reach the baseline's outputs, and it builds no
        profile: only its makespan is read.
        """
        if not spec.what_if:
            return []
        replay_spec = replace(spec, what_if=())
        base = builder.analysis()
        bodies = set(builder.body_names())
        results: list[WhatIfResult] = []
        for experiment in spec.what_if:
            body = resolve_body(experiment.body, bodies)
            scaled = builder.scaled_analysis(body, experiment.factor)
            rewriter = BodyRewriter(body, experiment.factor)
            replay = self.run(replay_spec, _rewrite=rewriter)
            results.append(
                WhatIfResult(
                    body=body,
                    speedup_pct=experiment.speedup_pct,
                    baseline_makespan_ns=baseline.exec_time_ns,
                    predicted_makespan_ns=predict_makespan_ns(
                        baseline_makespan_ns=baseline.exec_time_ns,
                        cores=spec.cores,
                        base_work_ns=base.work_ns,
                        base_span_ns=base.span_ns,
                        scaled_work_ns=scaled.work_ns,
                        scaled_span_ns=scaled.span_ns,
                    ),
                    replayed_makespan_ns=replay.exec_time_ns,
                    rewritten_computes=rewriter.rewritten,
                    scaled_work_ns=scaled.work_ns,
                    scaled_span_ns=scaled.span_ns,
                )
            )
        return results


def _names_profiler(counters: tuple[str, ...] | None) -> bool:
    """Whether *counters* name a ``/profiler`` counter (which reads a live builder)."""
    return any(c.startswith("/profiler") for c in counters or ())


def _profile_label(spec: RunSpec) -> str:
    """The workload spelling a profile reports: its parameters, bar the seed."""
    params = {k: v for k, v in spec.params.items() if k != "seed"}
    return WorkloadSpec(spec.workload, params).canonical()
