"""The workload registry: every runnable workload, by name.

Both workload families register here — the fourteen Inncabs
applications (with their small/default/large presets) and the Task
Bench dependency-graph generator — so discovery, validation, preset
resolution and error messages are uniform across ``Session``,
campaigns, the serve layer and the CLI.

``repro.inncabs.suite.available_benchmarks`` deliberately stays
Inncabs-only (the paper's Table V surface); this registry is the
superset layered on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.inncabs.base import Benchmark

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.counters.providers import CounterProvider
    from repro.workloads.spec import WorkloadSpec

__all__ = [
    "WorkloadEntry",
    "available_workloads",
    "get_workload",
    "overlay_params",
    "register_workload",
    "workload_preset_params",
]


@dataclass(frozen=True)
class WorkloadEntry:
    """One registered workload: a benchmark plus its preset table."""

    name: str
    family: str  # "inncabs" | "taskbench" | third-party
    benchmark: Benchmark
    #: Preset name -> parameter overrides ("default" is implicit and empty).
    presets: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    description: str = ""
    #: Counter providers installed into the registry of any session
    #: running this workload (the app-counter hook; see
    #: :mod:`repro.counters.providers`).
    counter_providers: tuple["CounterProvider", ...] = ()


_WORKLOADS: dict[str, WorkloadEntry] = {}
_LOADED = False


def register_workload(entry: WorkloadEntry) -> None:
    """Add *entry* to the registry; duplicate names are an error."""
    if entry.name in _WORKLOADS:
        raise ValueError(f"workload {entry.name!r} already registered")
    _WORKLOADS[entry.name] = entry


def _ensure_loaded() -> None:
    """Populate the registry on first use (import cycles forbid eager)."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    from repro.fmm.workload import FMM_COUNTER_PROVIDER, FMM_PRESETS, FmmBenchmark
    from repro.inncabs.presets import PRESETS
    from repro.inncabs.suite import available_benchmarks, get_benchmark
    from repro.taskbench.workload import TASKBENCH_PRESETS, TaskBenchBenchmark

    for name in available_benchmarks():
        bench = get_benchmark(name)
        register_workload(
            WorkloadEntry(
                name=name,
                family="inncabs",
                benchmark=bench,
                presets=PRESETS.get(name, {}),
                description=bench.info.description,
            )
        )
    taskbench = TaskBenchBenchmark()
    register_workload(
        WorkloadEntry(
            name=taskbench.info.name,
            family="taskbench",
            benchmark=taskbench,
            presets=TASKBENCH_PRESETS,
            description=taskbench.info.description,
        )
    )
    fmm = FmmBenchmark()
    register_workload(
        WorkloadEntry(
            name=fmm.info.name,
            family="miniapp",
            benchmark=fmm,
            presets=FMM_PRESETS,
            description=fmm.info.description,
            counter_providers=(FMM_COUNTER_PROVIDER,),
        )
    )


def available_workloads() -> list[str]:
    """Names of every registered workload (alphabetical)."""
    _ensure_loaded()
    return sorted(_WORKLOADS)


def get_workload(name: str) -> WorkloadEntry:
    """Look a workload up by name; ``KeyError`` lists valid names on miss."""
    _ensure_loaded()
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(available_workloads())}"
        ) from None


def workload_preset_params(name: str, preset: str) -> dict[str, Any]:
    """Parameter overrides for *name* under *preset*.

    ``default`` is always the empty override; raises ``KeyError`` for
    unknown workloads or presets (listing the valid choices).
    """
    entry = get_workload(name)
    if preset == "default":
        return {}
    try:
        return dict(entry.presets[preset])
    except KeyError:
        known = ", ".join(["default", *sorted(entry.presets)])
        raise KeyError(f"unknown preset {preset!r} for {name}; choose from: {known}") from None


def overlay_params(
    workload: "WorkloadSpec",
    *,
    preset: str = "default",
    params: Mapping[str, Any] | None = None,
    seed: int | None = None,
) -> dict[str, Any]:
    """The parameter overrides a run of *workload* gets.

    One overlay order for every surface: the *preset* < *params* (the
    CLI's ``--param``, a campaign's params) < the parameters embedded
    in the spec (most specific wins, so two variants of one workload in
    a matrix keep what distinguishes them) < *seed*, the root seed.
    Raises ``KeyError`` for an unknown workload or preset name, and
    ``ValueError`` for a ``seed`` parameter beside a root seed, which
    would silently replace it.
    """
    resolved = workload_preset_params(workload.name, preset)
    resolved.update(params or {})
    resolved.update(workload.params)
    if seed is not None:
        if "seed" in (params or {}) or "seed" in workload.params:
            raise ValueError(
                f"workload parameter seed={resolved['seed']!r} given beside the root seed "
                f"{seed!r}; give the seed once, as the root seed ('seed', or --seed)"
            )
        resolved["seed"] = seed
    return resolved
