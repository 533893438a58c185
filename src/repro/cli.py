"""Command-line interface.

Mirrors the convenience layer the paper describes ("all HPX
applications provide command line options related to performance
counters, such as the ability to list available counter types, or
periodically query specific counters"):

- ``repro workloads list|show`` — the unified workload registry
  (Inncabs with its Table V granularity, Task Bench, fmm), with
  defaults and presets;
- ``repro counters list|query`` — counter-type discovery and the
  telemetry front door: list the counter types (``--pattern ...``), or
  run a workload and stream every sample (wildcards expanded) as CSV
  or JSON lines;
- ``repro run WORKLOAD --runtime hpx --cores 8 --print-counter NAME ...``
  — one run with counters printed CSV-style;
- ``repro profile WORKLOAD --what-if body=NAME,speedup=PCT`` — causal
  profile of one run;
- ``repro platform list|show`` — the simulated nodes;
- ``repro taskbench --shape stencil_1d --width 64 --steps 32`` — the
  METG(eps) sweep over a parameterized dependency graph;
- ``repro table1`` / ``repro table5`` / ``repro figure fig5`` /
  ``repro generate`` — regenerate the paper's tables and figures;
- ``repro campaign --benchmarks fib sort --cores-list 1,2,4 --jobs 8``
  — run a (workload, runtime, cores, seed) matrix over a process pool
  with content-addressed caching, writing a versioned JSON artifact
  under ``results/campaigns/``;
- ``repro compare BASELINE CURRENT --threshold 0.10`` — diff two
  artifacts and exit non-zero on regression (the CI gate);
- ``repro serve`` / ``repro bench-serve`` — the HTTP run server and its
  load test.

Every option more than one subcommand takes is declared once, in
:data:`OPTIONS`; a subcommand names the shared options it takes and
overrides only their default.  ``run``, ``profile``, ``counters`` and
``campaign`` resolve workloads through one function, :func:`_workload`.
A user's mistake ends the same way on every subcommand: single-argument
checks are argparse converters, and :func:`main` turns the library's
validation errors (``ValueError``) into ``error: <message>`` on stderr
and exit status 2.  Errors from a running simulation
(``DeadlockError``, ``SimulationError``, and ``TaskFailed`` when a task
body raises, even a ``ValueError``) keep their traceback and exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Sequence

from repro.api import RUNTIMES, Session
from repro.counters.base import CounterEnvironment
from repro.counters.types import CounterValue
from repro.exec.modes import EXECUTION_MODES
from repro.experiments.config import DEFAULT_SAMPLES, QUICK_CORE_COUNTS
from repro.experiments.figures import (
    BANDWIDTH_FIGURES,
    EXEC_TIME_FIGURES,
    OVERHEAD_FIGURES,
    bandwidth_figure,
    execution_time_figure,
    overhead_figure,
)
from repro.experiments.report import (
    render_bandwidth_figure,
    render_execution_time_figure,
    render_overhead_figure,
    render_table1,
    render_table5,
)
from repro.experiments.tables import table1, table5
from repro.inncabs.base import DEFAULT_SEED
from repro.inncabs.suite import available_benchmarks
from repro.papi.hw import PapiSubstrate
from repro.platform.presets import resolve_platform
from repro.profiler import parse_what_if
from repro.runtime.scheduler import HpxRuntime
from repro.simcore.events import Engine
from repro.simcore.machine import Machine
from repro.telemetry import CsvSink, JsonLinesSink, TelemetryConfig
from repro.workloads import WorkloadSpec, overlay_params, parse_param

FIGURES = {**EXEC_TIME_FIGURES, **OVERHEAD_FIGURES, **BANDWIDTH_FIGURES}


def _converter(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """An argparse ``type=`` from a library parser: its error is a usage error."""

    def convert(text: str) -> Any:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _positive_int(text: str) -> int:
    """argparse type for counts: a positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type for ``--cores-list``: "1,2,4" -> (1, 2, 4)."""
    return tuple(_positive_int(item) for item in text.split(","))


def _figure(text: str) -> str:
    """argparse type for ``repro figure``'s FIGURE: a known figure id."""
    if text.lower() not in FIGURES:
        known = ", ".join(sorted(FIGURES))
        raise argparse.ArgumentTypeError(f"unknown figure {text!r}; known: {known}")
    return text.lower()


#: Every option more than one subcommand takes: flag -> ``add_argument``
#: keywords.  :func:`_options` adds them, with a subcommand's own default.
OPTIONS: dict[str, dict[str, Any]] = {
    "benchmark": dict(
        nargs="?",
        default=None,
        metavar="WORKLOAD",
        help="workload name or NAME:key=val,... spec (or use --workload)",
    ),
    "--workload": dict(
        default=None,
        metavar="NAME[:key=val,...]",
        help="workload spec, e.g. taskbench:shape=fft,width=8 (see 'repro workloads list')",
    ),
    "--runtime": dict(choices=RUNTIMES, default="hpx", help="runtime backend"),
    "--cores": dict(type=_positive_int, default=None, metavar="N", help="worker threads"),
    "--platform": dict(
        type=_converter(resolve_platform),
        default=None,
        metavar="NAME|FILE",
        help="simulated node: preset name or platform file (default: ivybridge-2x10)",
    ),
    "--seed": dict(type=int, default=None, help="root seed (default: the paper's 20160523)"),
    "--mode": dict(
        choices=EXECUTION_MODES,
        default=None,
        help="execution mode: 'exact' replays every task event, 'cohort' advances "
        "homogeneous task populations analytically (default: exact)",
    ),
    "--preset": dict(
        choices=("small", "default", "large", "paper"),
        default="default",
        help="input set (Inncabs-style); --param overrides on top",
    ),
    "--param": dict(
        type=_converter(parse_param),
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="workload parameter override (repeatable)",
    ),
    "--benchmarks": dict(
        nargs="*",
        choices=available_benchmarks(),
        default=None,
        help="Inncabs benchmarks to include (default: all fourteen)",
    ),
    "--jobs": dict(type=_positive_int, default=1, help="worker processes (1 = serial)"),
    "--samples": dict(type=_positive_int, default=DEFAULT_SAMPLES, help="samples per point"),
    "--cores-list": dict(
        type=_int_list, default=QUICK_CORE_COUNTS, help="comma-separated core counts"
    ),
    "--cache-dir": dict(
        default=None,
        metavar="DIR",
        help="result cache root (default: results/campaigns/cache)",
    ),
    "--no-cache": dict(action="store_true", help="always execute, never read the cache"),
    "--no-counters": dict(action="store_true", help="disable instrumentation"),
    "--out": dict(default=None, metavar="FILE", help="output file"),
    "--verbose": dict(action="store_true", help="more detail (progress goes to stderr)"),
    "--workers": dict(type=_positive_int, default=None, help="server worker processes"),
}


#: The options of the commands that run one workload (``run``, ``profile``).
ONE_WORKLOAD = (
    "benchmark",
    "--workload",
    "--runtime",
    "--cores",
    "--platform",
    "--seed",
    "--mode",
    "--preset",
    "--param",
)


def _options(parser: argparse.ArgumentParser, *names: str, **defaults: Any) -> None:
    """Add the shared options *names*; *defaults* overrides some by dest."""
    for name in names:
        kwargs = dict(OPTIONS[name])
        dest = name.lstrip("-").replace("-", "_")
        if dest in defaults:
            kwargs["default"] = defaults[dest]
        parser.add_argument(name, **kwargs)


def _workload(args: argparse.Namespace, text: str | None = None) -> WorkloadSpec:
    """The workload *text* names, with the command's overrides applied.

    *text* defaults to the one workload ``run``/``profile`` name, by
    positional or ``--workload``.  ``--preset``, ``--param`` and
    ``--seed`` overlay in :func:`~repro.workloads.overlay_params` order,
    then ``--mode``.  Unknown workload and preset names (the registry's
    ``KeyError``) become ``ValueError`` here, where they are looked up,
    and the spec is validated, so a mistake surfaces before a command
    writes anything.
    """
    if text is None:
        named = [name for name in (args.benchmark, args.workload) if name]
        if len(named) != 1:
            raise ValueError("name exactly one workload (positional WORKLOAD or --workload)")
        (text,) = named
    workload = WorkloadSpec.parse(text)
    try:
        params = overlay_params(
            workload,
            preset=getattr(args, "preset", "default"),
            params=dict(getattr(args, "param", ())),
            seed=getattr(args, "seed", None),
        )
        if getattr(args, "mode", None) is not None:
            params["mode"] = args.mode
        workload = WorkloadSpec(workload.name, params)
        workload.validate()
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    return workload


@contextlib.contextmanager
def _output(path: str | os.PathLike) -> Iterator[IO[str]]:
    """Write one output file: create its directory, open it, then say ``wrote PATH``.

    The announcement goes to stderr, so it never mixes with data on stdout.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        yield fh
    print(f"wrote {path}", file=sys.stderr)


def _destination(path: str | None) -> contextlib.AbstractContextManager[IO[str]]:
    """:func:`_output` for *path*, else stdout (borrowed, left open)."""
    return _output(path) if path else contextlib.nullcontext(sys.stdout)


def _session(args: argparse.Namespace) -> Session:
    """The session of a one-workload command."""
    return Session(runtime=args.runtime, cores=args.cores, platform=args.platform)


def _load(what: str, load: Callable[[str], Any], path: str) -> Any:
    """``load(path)``; an unreadable file is the user's error."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load {what}: {exc}") from None


def _load_artifact(path: str) -> Any:
    from repro.campaign.artifact import CampaignArtifact

    return _load("artifact", CampaignArtifact.load, path)


def cmd_counters_list(args: argparse.Namespace) -> int:
    import fnmatch

    from repro.counters.providers import build_registry

    workload_name = _workload(args, args.workload).name if args.workload else None
    # Cores follow the named platform's full shape unless given
    # explicitly; the bare invocation keeps its historical 4 workers.
    cores = args.cores or (args.platform.total_cores if args.platform is not None else 4)
    engine = Engine()
    machine = Machine(args.platform)
    runtime = HpxRuntime(engine, machine, num_workers=cores)
    env = CounterEnvironment(
        engine=engine, runtime=runtime, machine=machine, papi=PapiSubstrate(machine)
    )
    registry = build_registry(env, workload=workload_name)
    provider_filters = list(args.providers or [])
    matched = 0
    available_providers: set[str] = set()
    for entry in registry.counter_types(args.pattern):
        info = entry.info
        provider = registry.provider_of(info.type_name)
        available_providers.add(provider)
        if provider_filters and not any(
            fnmatch.fnmatch(provider, pat) for pat in provider_filters
        ):
            continue
        matched += 1
        unit = f" [{info.unit}]" if info.unit else ""
        print(f"{info.type_name:55s} {info.counter_type.value:25s} {provider:18s}{unit}")
        if args.verbose:
            print(f"    {info.help_text}")
            for inst_name, inst_index in entry.instances(registry.env):
                suffix = "" if inst_index is None else f"#{inst_index}"
                object_name, counter = info.type_name[1:].split("/", 1)
                print(f"      /{object_name}{{locality#0/{inst_name}{suffix}}}/{counter}")
    if provider_filters and not matched:
        patterns = ", ".join(provider_filters)
        names = ", ".join(sorted(available_providers)) or "none"
        print(
            f"no providers matched {patterns!r}; available providers: {names}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_counters_query(args: argparse.Namespace) -> int:
    workload = _workload(args, args.benchmark)
    interval_ns = None if args.interval is None else round(args.interval * 1e6)
    with _destination(args.out) as dest:
        sink = (CsvSink if args.format == "csv" else JsonLinesSink)(dest)
        result = _session(args).run(
            workload,
            telemetry=TelemetryConfig(
                counters=tuple(args.specs) or None, interval_ns=interval_ns, sinks=(sink,)
            ),
        )
    if result.aborted:
        print(f"{args.benchmark} [{args.runtime}]: ABORT: {result.abort_reason}", file=sys.stderr)
        return 1
    frame = result.telemetry
    print(
        f"{args.benchmark} [{args.runtime}, {args.cores} cores]: "
        f"{result.exec_time_ms:.3f} ms, {len(frame)} samples over "
        f"{len(frame.names())} counters",
        file=sys.stderr,
    )
    return 0 if result.verified else 1


def cmd_platform_list(_args: argparse.Namespace) -> int:
    from repro.platform import DEFAULT_PLATFORM, get_platform, platform_names

    for name in platform_names():
        spec = get_platform(name)
        marker = "*" if name == DEFAULT_PLATFORM else " "
        shape = "+".join(str(sock.cores) for sock in spec.sockets)
        freqs = sorted({sock.freq_ghz for sock in spec.sockets})
        freq = "/".join(f"{f:g}" for f in freqs)
        print(
            f"{marker} {name:16s} {spec.num_sockets} socket(s) x [{shape}] cores "
            f"@ {freq} GHz, {spec.ram_bytes / 1024**3:.0f} GiB"
        )
    print("\n(* = default; any entry works with --platform, as does a .toml/.json file)")
    return 0


def cmd_platform_show(args: argparse.Namespace) -> int:
    from repro.simcore.topology import Topology

    spec = resolve_platform(args.name)
    print(spec.describe())
    topology = Topology(spec)
    print("\ntopology:")
    print(f"machine ({spec.ram_bytes / 1024**3:.0f} GiB RAM)")
    for s, sock in enumerate(spec.sockets):
        print(f"  socket#{s} ({sock.cores} cores, L3 {sock.l3_bytes / 1024**2:.0f} MB)")
        for core in spec.core_range(s):
            print(f"    {topology.describe_core(core)}  (global core#{core})")
    return 0


def format_counter_values(values: Sequence[CounterValue]) -> str:
    """Render one evaluation in the HPX ``--hpx:print-counter`` CSV style:
    ``name,count,time[ns],value``, one line per counter."""
    return "\n".join(f"{v.name},{v.count},{v.time},{v.value:g}" for v in values)


def cmd_run(args: argparse.Namespace) -> int:
    workload = _workload(args)
    interval = args.print_counter_interval
    telemetry = TelemetryConfig(
        counters=() if args.no_counters else tuple(args.print_counter) or None,
        interval_ns=None if interval is None else round(interval * 1e6),
    )
    # Interval samples go to the destination as they are taken.
    with _destination(args.print_counter_destination if interval is not None else None) as dest:
        result = _session(args).run(
            workload,
            telemetry=telemetry,
            on_sample=lambda rows: print(format_counter_values(rows), file=dest),
        )
    if result.aborted:
        print(f"{workload.name} [{args.runtime}, {args.cores} cores]: ABORT")
        print(f"  {result.abort_reason}")
        return 1
    print(
        f"{workload.name} [{args.runtime}, {args.cores} cores]: "
        f"{result.exec_time_ms:.3f} ms, {result.tasks_executed} tasks, "
        f"verified={result.verified}"
    )
    if result.counters:
        print("counter,count,time,value")
        for name, value in result.counters.items():
            print(f"{name},1,{result.exec_time_ns},{value:g}")
    return 0 if result.verified else 1


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.profiler import ProfileConfig

    workload = _workload(args)
    result = _session(args).run(
        workload,
        telemetry=TelemetryConfig(counters=None if args.counters else ()),
        profile=ProfileConfig(what_if=tuple(args.what_if), keep_events=args.chrome_out is not None),
    )
    profile = result.profile
    if result.aborted:
        print(f"{workload.name} [{args.runtime}, {args.cores} cores]: ABORT")
        print(f"  {result.abort_reason}")
        if profile is not None:
            print()
            print(profile.render(top=args.top))
        return 1
    print(profile.render(top=args.top))
    if args.json:
        with _output(args.json) as fh:
            json.dump(profile.to_json_dict(include_series=True), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.chrome_out:
        from repro.telemetry.sample import Sample
        from repro.trace.export import to_chrome_trace

        # The parallelism waterfall rides along as a counter track.
        series = [
            Sample(
                name="/profiler{locality#0/total}/logical-parallelism",
                instance="locality#0/total",
                timestamp_ns=p.time_ns,
                value=p.active,
                run_id=profile.workload,
            )
            for p in profile.parallelism.points
        ]
        with _output(args.chrome_out) as fh:
            fh.write(to_chrome_trace(list(profile.events or ()), telemetry=series))
            fh.write("\n")
    return 0 if result.verified else 1


def cmd_workloads_list(_args: argparse.Namespace) -> int:
    from repro.workloads import available_workloads, get_workload

    for name in available_workloads():
        entry = get_workload(name)
        presets = ",".join(["default", *sorted(entry.presets)])
        granularity = entry.benchmark.info.paper_granularity
        print(
            f"{name:11s} {entry.family:9s} {granularity:18s} presets={presets:21s} "
            f"{entry.description}"
        )
    return 0


def cmd_workloads_show(args: argparse.Namespace) -> int:
    from repro.workloads import get_workload

    entry = get_workload(_workload(args, args.name).name)
    info = entry.benchmark.info
    print(f"{entry.name} ({entry.family}): {entry.description}")
    print(f"  structure: {info.structure}, synchronization: {info.synchronization}")
    print("  defaults:")
    for key, value in entry.benchmark.default_params.items():
        print(f"    {key} = {value!r}")
    for preset in sorted(entry.presets):
        overrides = ", ".join(f"{k}={v!r}" for k, v in entry.presets[preset].items())
        print(f"  preset {preset}: {overrides}")
    example = ":key=val,..." if entry.benchmark.default_params else ""
    print(f"  spec example: {entry.name}{example}")
    return 0


def cmd_taskbench(args: argparse.Namespace) -> int:
    from repro.taskbench import metg_sweep

    platform = resolve_platform(args.platform)
    cores = args.cores or platform.total_cores
    runtimes = (args.runtime,) if args.runtime else RUNTIMES
    results = []
    for runtime in runtimes:

        def progress(probe, _rt=runtime):
            if args.verbose:
                state = "ABORT" if probe.aborted else f"eff={probe.efficiency:.4f}"
                print(f"  {_rt} grain={probe.grain_ns} ns: {state}", file=sys.stderr)

        result = metg_sweep(
            shape=args.shape,
            width=args.width,
            steps=args.steps,
            runtime=runtime,
            cores=cores,
            eps=args.eps,
            seed=args.seed,
            platform=platform,
            membytes=args.membytes,
            degree=args.degree,
            progress=progress,
        )
        results.append(result)
        metg = "unreachable" if result.metg_ns is None else f"{result.metg_ns} ns"
        print(
            f"taskbench {args.shape} width={args.width} steps={args.steps} "
            f"[{runtime}, {cores} cores, {platform.name}]: "
            f"METG({args.eps:g}) = {metg} ({len(result.probes)} probes)"
        )
    if args.out:
        payload = {"results": [r.to_json_dict() for r in results]}
        with _output(args.out) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.samples_out:
        with _output(args.samples_out) as fh:
            sink = JsonLinesSink(fh)
            for result in results:
                for sample in result.to_samples():
                    sink.emit(sample)
            sink.close()
    return 0 if all(r.metg_ns is not None for r in results) else 1


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.quotas import QuotaConfig
    from repro.serve.server import ServerConfig, serve_forever

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        quota=QuotaConfig(rate=args.quota_rate, burst=args.quota_burst),
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        no_cache=args.no_cache,
    )

    def announce(server):  # the bound port matters with --port 0
        cache = "off" if config.no_cache else str(server.cache.root)
        print(
            f"serving on {config.host}:{server.port} "
            f"({config.workers} workers, queue {config.max_queue}, cache {cache})",
            flush=True,
        )

    try:
        asyncio.run(serve_forever(config, ready=announce))
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign.cache import ResultCache
    from repro.campaign.engine import run_campaign
    from repro.campaign.spec import CampaignSpec

    workloads = tuple(args.benchmarks or []) + tuple(args.workloads or [])
    if not workloads:
        workloads = tuple(available_benchmarks())
    params = dict(args.param)
    if args.mode is not None:
        params["mode"] = args.mode
    spec = CampaignSpec(
        benchmarks=workloads,
        runtimes=tuple(args.runtimes),
        core_counts=args.cores_list,
        samples=args.samples,
        seed=args.seed,
        preset=args.preset,
        params=params,
        platform=args.platform,
        counters=() if args.no_counters else None,
        profile=args.profile,
    )
    cache = None
    if not args.no_cache:
        cache = ResultCache(Path(args.cache_dir)) if args.cache_dir else ResultCache.default()
    progress = None
    if args.verbose:
        total = sum(1 for _ in spec.cells())
        seen = [0]

        def show_progress(cell, result, from_cache):
            seen[0] += 1
            source = "cache" if from_cache else "run"
            state = "ABORT" if result["aborted"] else f"{result['exec_time_ns'] / 1e6:.3f} ms"
            print(f"[{seen[0]}/{total}] {cell.label()}: {state} ({source})", file=sys.stderr)

        progress = show_progress

    run = run_campaign(spec, jobs=args.jobs, cache=cache, progress=progress)
    s = run.stats
    print(
        f"campaign {spec.spec_id()}: {s.total} cells | cache hits {s.cache_hits} "
        f"({s.hit_rate:.0%}) | executed {s.executed} | aborted {s.aborted}"
    )
    with _output(args.out or f"results/campaigns/{spec.spec_id()}.json") as fh:
        fh.write(run.artifact.to_json() + "\n")
    return 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.experiments.bench_serve import compare_to_baseline, render, run_bench_serve

    baseline = None
    if args.baseline:
        baseline = _load("baseline", lambda path: json.loads(Path(path).read_text()), args.baseline)
    result = run_bench_serve(
        args.mode,
        clients=args.clients,
        runs=args.runs,
        workers=args.workers,
        cache_dir=args.cache_dir,
        progress=lambda line: print(line, file=sys.stderr),
    )
    payload = result.to_dict()
    print(render(payload))
    if args.out:
        with _output(args.out) as fh:
            fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    if baseline is None:
        return 0
    failures = compare_to_baseline(payload, baseline, threshold=args.threshold)
    if failures:
        print(f"\nFAIL: serve load regression vs {args.baseline}:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\ngate OK vs {args.baseline} (threshold x{args.threshold:g})")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.campaign.compare import CompareThresholds, compare_artifacts, render_compare

    baseline, current = _load_artifact(args.baseline), _load_artifact(args.current)
    thresholds = CompareThresholds(exec_time=args.threshold, counters=args.counter_threshold)
    report = compare_artifacts(baseline, current, thresholds)
    print(render_compare(report, only_failures=args.only_failures))
    return report.exit_code()


def cmd_table1(args: argparse.Namespace) -> int:
    rows = table1(benchmarks=args.benchmarks or None, cores=args.cores)
    print(render_table1(rows))
    return 0


def _experiment(
    args: argparse.Namespace, benchmarks: Sequence[str], runtimes: Sequence[str]
) -> Any:
    """The artifact of a fresh campaign over *benchmarks* x *runtimes*, never cached.

    ``--cores-list``, ``--samples`` and ``--jobs`` shape it; everything
    else is a :class:`~repro.campaign.spec.CampaignSpec` default.
    """
    from repro.campaign.engine import run_campaign
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec(
        benchmarks=tuple(benchmarks),
        runtimes=tuple(runtimes),
        core_counts=args.cores_list,
        samples=args.samples,
    )
    return run_campaign(spec, jobs=args.jobs).artifact


def cmd_table5(args: argparse.Namespace) -> int:
    artifact = _experiment(args, args.benchmarks or available_benchmarks(), RUNTIMES)
    print(render_table5(table5(artifact)))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    if args.artifact is not None:
        artifact = _load_artifact(args.artifact)
    else:
        # Figures 1-7 compare both runtimes; 8-14 read the HPX counters.
        runtimes = RUNTIMES if args.figure in EXEC_TIME_FIGURES else ("hpx",)
        artifact = _experiment(args, [FIGURES[args.figure]], runtimes)
    try:
        if args.figure in EXEC_TIME_FIGURES:
            text = render_execution_time_figure(execution_time_figure(args.figure, artifact))
        elif args.figure in OVERHEAD_FIGURES:
            text = render_overhead_figure(overhead_figure(args.figure, artifact))
        else:
            text = render_bandwidth_figure(bandwidth_figure(args.figure, artifact))
    except KeyError as exc:
        # CampaignArtifact.curve: a loaded artifact lacks the figure's cells.
        raise ValueError(exc.args[0]) from None
    print(text)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.experiments.generate import generate_all

    generate_all(Path(args.outdir), samples=args.samples, jobs=args.jobs, cache_dir=args.cache_dir)
    print(f"wrote results to {args.outdir}/")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Using Intrinsic Performance Counters to "
        "Assess Efficiency in Task-based Parallel Applications'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counters", help="telemetry front door: list counter types, stream samples")
    counters_sub = p.add_subparsers(dest="counters_command", required=True)
    pc = counters_sub.add_parser("list", help="list available counter types")
    pc.add_argument("--pattern", default=None, help="glob over type names")
    _options(pc, "--cores", "--verbose", "--workload", "--platform")
    pc.add_argument(
        "--providers",
        action="append",
        default=None,
        metavar="GLOB",
        help="only show counter types from matching providers "
        "(repeatable; e.g. --providers 'builtin.*' --providers fmm)",
    )
    pc.set_defaults(fn=cmd_counters_list)
    pc = counters_sub.add_parser(
        "query", help="run a workload and stream every counter sample (CSV or JSON lines)"
    )
    pc.add_argument(
        "specs",
        nargs="*",
        metavar="COUNTER",
        help="counter-name specs; '#*' wildcards are expanded at discovery "
        "(default: the paper's counter set)",
    )
    pc.add_argument(
        "--benchmark",
        default="fib",
        metavar="WORKLOAD",
        help="workload name or NAME:key=val,... spec (see 'repro workloads list')",
    )
    _options(pc, "--runtime", "--cores", "--platform", "--preset", "--param", "--mode", cores=4)
    pc.add_argument(
        "--interval",
        type=float,
        default=None,
        metavar="MS",
        help="also sample every MS of simulated time, in-band "
        "(default: one evaluation at termination)",
    )
    pc.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    _options(pc, "--out")
    pc.set_defaults(fn=cmd_counters_query)

    p = sub.add_parser("platform", help="inspect the available platform presets")
    platform_sub = p.add_subparsers(dest="platform_command", required=True)
    pp = platform_sub.add_parser("list", help="list platform presets")
    pp.set_defaults(fn=cmd_platform_list)
    pp = platform_sub.add_parser("show", help="hwloc-style description of one platform")
    pp.add_argument("name", help="preset name or path to a .toml/.json platform file")
    pp.set_defaults(fn=cmd_platform_show)

    p = sub.add_parser("run", help="run one workload")
    _options(p, *ONE_WORKLOAD, "--no-counters", cores=1)
    p.add_argument(
        "--print-counter",
        action="append",
        default=[],
        metavar="NAME",
        help="counter to collect (repeatable); default: the paper's set",
    )
    p.add_argument(
        "--print-counter-interval",
        type=float,
        default=None,
        metavar="MS",
        help="sample the counters every MS of simulated time, in-band "
        "(the --hpx:print-counter-interval convenience layer)",
    )
    p.add_argument(
        "--print-counter-destination",
        default=None,
        metavar="FILE",
        help="write interval samples to FILE instead of stdout",
    )
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser(
        "profile",
        help="causal profile of one run: critical path, parallelism, what-if speedups",
    )
    _options(p, *ONE_WORKLOAD, cores=4)
    p.add_argument(
        "--what-if",
        type=_converter(parse_what_if),
        action="append",
        default=[],
        metavar="body=NAME,speedup=PCT",
        help="causal experiment: predict and replay the run with NAME's "
        "work cost cut by PCT%% (repeatable)",
    )
    p.add_argument(
        "--top", type=int, default=10, help="flat-profile rows to show (default 10)"
    )
    p.add_argument(
        "--json", default=None, metavar="FILE", help="write the full profile as JSON"
    )
    p.add_argument(
        "--chrome-out",
        default=None,
        metavar="FILE",
        help="write a chrome://tracing timeline (tasks + parallelism waterfall)",
    )
    p.add_argument(
        "--counters",
        action="store_true",
        help="also collect the default counter set during the profiled run",
    )
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("workloads", help="the unified workload registry (Inncabs + Task Bench)")
    workloads_sub = p.add_subparsers(dest="workloads_command", required=True)
    pw = workloads_sub.add_parser(
        "list", help="list every registered workload, with its Table V granularity"
    )
    pw.set_defaults(fn=cmd_workloads_list)
    pw = workloads_sub.add_parser("show", help="defaults and presets of one workload")
    pw.add_argument("name", help="workload name (see 'repro workloads list')")
    pw.set_defaults(fn=cmd_workloads_show)

    p = sub.add_parser(
        "taskbench",
        help="METG(eps) sweep over a parameterized dependency graph",
        description="METG(eps) sweep over a parameterized dependency graph, on both "
        "runtimes unless --runtime names one, on all platform cores unless --cores is given.",
    )
    p.add_argument(
        "--shape",
        choices=("trivial", "stencil_1d", "fft", "tree", "random"),
        default="stencil_1d",
        help="dependency pattern (default: stencil_1d)",
    )
    p.add_argument("--width", type=_positive_int, default=64, help="points per timestep")
    p.add_argument("--steps", type=_positive_int, default=32, help="number of timesteps")
    p.add_argument(
        "--eps",
        type=float,
        default=0.5,
        help="efficiency slack: METG is the smallest grain with "
        "efficiency >= 1-eps (default 0.5)",
    )
    _options(p, "--runtime", "--cores", runtime=None)
    p.add_argument("--membytes", type=int, default=0, help="memory traffic per task (bytes)")
    p.add_argument(
        "--degree", type=float, default=3.0, help="expected in-degree of the random shape"
    )
    _options(p, "--platform", "--seed", "--out", seed=DEFAULT_SEED)
    p.add_argument(
        "--samples-out",
        default=None,
        metavar="FILE",
        help="also write the derived /taskbench{...} counter samples as JSON lines",
    )
    _options(p, "--verbose")
    p.set_defaults(fn=cmd_taskbench)

    p = sub.add_parser("serve", help="run the HTTP run server (simulation-as-a-service)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765, help="0 = ephemeral (announced on stdout)")
    _options(p, "--workers", workers=2)
    p.add_argument(
        "--max-queue", type=int, default=256, help="queued-run capacity (429 beyond this)"
    )
    p.add_argument(
        "--quota-rate", type=float, default=50.0, help="per-tenant sustained runs/second"
    )
    p.add_argument("--quota-burst", type=float, default=100.0, help="per-tenant burst allowance")
    _options(p, "--cache-dir", "--no-cache")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("campaign", help="run an experiment matrix over a process pool")
    _options(p, "--benchmarks")
    p.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        metavar="NAME[:key=val,...]",
        help="workload specs to include alongside --benchmarks (with no --benchmarks, "
        "only these run; e.g. taskbench:shape=fft,width=8)",
    )
    p.add_argument(
        "--runtimes",
        nargs="+",
        default=list(RUNTIMES),
        choices=RUNTIMES,
        help="runtimes to include (default: both)",
    )
    _options(p, "--cores-list", "--samples", "--preset", "--param", "--mode", "--jobs")
    _options(p, "--platform", "--seed", "--out", "--cache-dir", seed=DEFAULT_SEED)
    _options(p, "--no-cache", "--no-counters")
    p.add_argument(
        "--profile",
        action="store_true",
        help="attach the causal profiler to every cell; artifacts then carry "
        "per-cell profile summaries (critical path, work/span, parallelism)",
    )
    _options(p, "--verbose")
    p.set_defaults(fn=cmd_campaign)

    p = sub.add_parser("bench-serve", help="load-test the run server (latency + cache gate)")
    p.add_argument(
        "--mode",
        choices=("quick", "reference"),
        default="quick",
        help="load shape: quick (50 clients / 500 runs, CI) or reference (100 / 2000)",
    )
    p.add_argument("--clients", type=int, default=None, help="concurrent client tasks")
    p.add_argument("--runs", type=int, default=None, help="total submissions")
    _options(p, "--workers", "--cache-dir", "--out", out="BENCH_serve.json")
    p.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="gate against this committed artifact (e.g. results/baseline_serve.json)",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=3.0,
        help="allowed multiplier on the baseline's normalized latency ratios (default 3.0)",
    )
    p.set_defaults(fn=cmd_bench_serve)

    p = sub.add_parser("compare", help="diff two campaign artifacts (regression gate)")
    p.add_argument("baseline", help="baseline artifact (JSON)")
    p.add_argument("current", help="current artifact (JSON)")
    p.add_argument(
        "--threshold",
        type=float,
        default=0.05,
        help="relative median-exec-time regression tolerance (default 0.05)",
    )
    p.add_argument(
        "--counter-threshold",
        type=float,
        default=None,
        help="also gate on counter-median drift beyond this fraction",
    )
    p.add_argument("--only-failures", action="store_true", help="table shows failures only")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("table1", help="regenerate Table I (external tools)")
    _options(p, "--benchmarks", "--cores", cores=20)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("table5", help="regenerate Table V (classification)")
    _options(p, "--benchmarks", "--samples", "--cores-list", "--jobs")
    p.set_defaults(fn=cmd_table5)

    p = sub.add_parser("figure", help="regenerate one figure's series")
    p.add_argument("figure", type=_figure, help="fig1..fig14")
    _options(p, "--samples", "--cores-list", "--jobs")
    p.add_argument(
        "--artifact",
        default=None,
        metavar="FILE",
        help="read curves from a campaign artifact instead of running",
    )
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("generate", help="regenerate every table and figure into a directory")
    p.add_argument("outdir", nargs="?", default="results")
    _options(p, "--samples", "--jobs", "--cache-dir", samples=1)
    p.set_defaults(fn=cmd_generate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except ValueError as exc:
        # The library's validation errors are the user's mistakes.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (``repro ... | head``): stop quietly, with
        # stdout on /dev/null so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
