"""Campaign description, cell enumeration, and stable cache keys.

A :class:`CampaignSpec` is the declarative form of the paper's
experiment matrix: which benchmarks, which runtimes, which core counts,
how many samples, and every parameter that influences a run (machine
model, runtime cost models, benchmark inputs, root seed).  The spec is
the single source of truth from which

- the engine enumerates :class:`Cell`\\ s (one simulation run each),
- the cache derives a content-addressed key per cell, and
- the artifact records how its data was produced.

Cache keys are a SHA-256 over a canonical JSON encoding of everything
that determines a cell's result — including the package version, so a
code release invalidates cached results — and deliberately exclude
matrix shape (which benchmarks/core counts ran alongside), so growing
a campaign reuses every cell already computed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from repro._version import __version__
from repro.experiments.config import DEFAULT_SAMPLES, QUICK_CORE_COUNTS, ExperimentConfig
from repro.kernel.config import StdParams
from repro.platform.presets import default_platform, resolve_platform
from repro.platform.spec import PlatformSpec
from repro.runtime.config import HpxParams

#: Bump to invalidate every cached cell (cache layout / semantics change).
#: v4: payloads carry telemetry sample rows; platform specs grew
#: ``counter_query_cost_ns``.
#: v5: cells name workloads (``WorkloadSpec`` canonical strings) — the
#: key hashes the parsed workload name with its parameters folded into
#: ``params``, so every spelling of one workload shares one entry.
#: v6: the key folds in the counter-provider identity (built-ins,
#: workload-attached providers, installed entry points) — a new plugin
#: or workload provider can change which counters a run collects, so
#: it must invalidate the cell.
#: v7: the execution-mode architecture landed (``mode`` is a workload
#: param reaching the key through ``cell_params``); results also
#: persist the mode per cell, so pre-mode payloads must not satisfy
#: post-mode lookups.
#: v8: the causal profiler landed — ``builtin.profiler`` joined the
#: provider chain (changing ``provider_identity``) and cells may run
#: profiled (``CampaignSpec.profile`` reaches the key), whose per-event
#: instrumentation charge perturbs every result.
CACHE_KEY_VERSION = 8

RUNTIMES = ("hpx", "std")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding used for hashing and artifacts."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def stable_hash(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of *obj*."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


@dataclass(frozen=True)
class Cell:
    """One cell of the matrix: a single simulation run.

    ``benchmark`` is the canonical :class:`~repro.workloads.WorkloadSpec`
    spelling — a bare name for parameterless entries (``"fib"``), or
    ``"taskbench:shape=fft,width=8"`` when the matrix runs several
    variants of one workload side by side.
    """

    benchmark: str
    runtime: str  # "hpx" | "std"
    cores: int
    sample: int  # sample index within the point
    seed: int  # fully-resolved root seed for this run

    def label(self) -> str:
        return f"{self.benchmark}/{self.runtime} cores={self.cores} sample={self.sample}"


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a campaign needs to be reproducible."""

    benchmarks: tuple[str, ...]
    runtimes: tuple[str, ...] = RUNTIMES
    core_counts: tuple[int, ...] = QUICK_CORE_COUNTS
    samples: int = DEFAULT_SAMPLES
    seed: int = 20160523
    preset: str = "default"
    #: Extra benchmark parameters overlaid on the preset, for every benchmark.
    params: Mapping[str, Any] = field(default_factory=dict)
    platform: PlatformSpec = field(default_factory=default_platform)
    hpx: HpxParams = field(default_factory=HpxParams)
    std: StdParams | None = None  # None: the scaled-budget default
    collect_counters: bool = True
    counter_specs: tuple[str, ...] | None = None  # None: the paper's set
    #: Attach the causal profiler to every cell; the run results then
    #: carry a profile summary (critical path, work/span, parallelism).
    #: Profiling charges per-event instrumentation, so profiled cells
    #: cache separately from unprofiled ones.
    profile: bool = False

    def __post_init__(self) -> None:
        from repro.workloads import WorkloadSpec

        # Normalize every entry to the canonical WorkloadSpec spelling
        # (validating the name and parameter keys up front), so cells,
        # artifacts and cache keys never see spelling variants.
        normalized = []
        for entry in self.benchmarks:
            workload = entry if isinstance(entry, WorkloadSpec) else WorkloadSpec.parse(entry)
            workload.validate()
            normalized.append(workload.canonical())
        object.__setattr__(self, "benchmarks", tuple(normalized))
        object.__setattr__(self, "platform", resolve_platform(self.platform))
        if self.std is None:
            from repro.experiments.config import default_std_params

            object.__setattr__(self, "std", default_std_params())
        for runtime in self.runtimes:
            if runtime not in RUNTIMES:
                raise ValueError(f"unknown runtime {runtime!r}; expected one of {RUNTIMES}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")

    @classmethod
    def from_config(
        cls,
        config: ExperimentConfig,
        *,
        benchmarks: Sequence[str],
        runtimes: Sequence[str] = RUNTIMES,
        core_counts: Sequence[int] | None = None,
        samples: int | None = None,
        params: Mapping[str, Any] | None = None,
        preset: str = "default",
        collect_counters: bool = True,
        counter_specs: Sequence[str] | None = None,
    ) -> "CampaignSpec":
        """Build a spec from an :class:`ExperimentConfig` (the harness path)."""
        return cls(
            benchmarks=tuple(benchmarks),
            runtimes=tuple(runtimes),
            core_counts=tuple(core_counts if core_counts is not None else config.core_counts),
            samples=samples if samples is not None else config.samples,
            seed=config.seed,
            preset=preset,
            params=dict(params or {}),
            platform=config.platform,
            hpx=config.hpx,
            std=config.std,
            collect_counters=collect_counters,
            counter_specs=tuple(counter_specs) if counter_specs is not None else None,
        )

    def experiment_config(self, cell: Cell) -> ExperimentConfig:
        """The single-run :class:`ExperimentConfig` behind *cell*."""
        assert self.std is not None
        return ExperimentConfig(
            platform=self.platform,
            hpx=self.hpx,
            std=self.std,
            samples=1,
            core_counts=(cell.cores,),
            seed=cell.seed,
        )

    def cells(self) -> Iterator[Cell]:
        """Enumerate the matrix in canonical (deterministic) order.

        Seeds vary per sample exactly as the serial harness always did
        (``seed + sample``), so campaign results are bit-compatible
        with historical serial runs.
        """
        for benchmark in self.benchmarks:
            for runtime in self.runtimes:
                for cores in self.core_counts:
                    for sample in range(self.samples):
                        yield Cell(
                            benchmark=benchmark,
                            runtime=runtime,
                            cores=cores,
                            sample=sample,
                            seed=self.seed + sample,
                        )

    def cell_params(self, cell: Cell) -> dict[str, Any]:
        """Fully-resolved workload parameters for *cell*.

        The overlay of :func:`repro.workloads.overlay_params`: preset <
        campaign-wide ``params`` < the cell's own embedded workload
        parameters < the cell seed.
        """
        from repro.workloads import WorkloadSpec, overlay_params

        return overlay_params(
            WorkloadSpec.parse(cell.benchmark),
            preset=self.preset,
            params=self.params,
            seed=cell.seed,
        )

    def to_json_dict(self) -> dict[str, Any]:
        assert self.std is not None
        return {
            "benchmarks": list(self.benchmarks),
            "runtimes": list(self.runtimes),
            "core_counts": list(self.core_counts),
            "samples": self.samples,
            "seed": self.seed,
            "preset": self.preset,
            "params": dict(self.params),
            "platform": self.platform.to_json_dict(),
            "hpx": asdict(self.hpx),
            "std": asdict(self.std),
            "collect_counters": self.collect_counters,
            "counter_specs": list(self.counter_specs) if self.counter_specs else None,
            "profile": self.profile,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        return cls(
            benchmarks=tuple(data["benchmarks"]),
            runtimes=tuple(data["runtimes"]),
            core_counts=tuple(data["core_counts"]),
            samples=data["samples"],
            seed=data["seed"],
            preset=data["preset"],
            params=dict(data["params"]),
            platform=PlatformSpec.from_json_dict(data["platform"]),
            hpx=HpxParams(**data["hpx"]),
            std=StdParams(**data["std"]),
            collect_counters=data["collect_counters"],
            counter_specs=(
                tuple(data["counter_specs"]) if data["counter_specs"] is not None else None
            ),
            profile=data["profile"],
        )

    def spec_id(self) -> str:
        """Short stable identifier for the whole campaign (file naming)."""
        return stable_hash({"version": __version__, "spec": self.to_json_dict()})[:12]


def cell_cache_key(spec: CampaignSpec, cell: Cell) -> str:
    """Content-addressed cache key for one cell.

    Includes every input that determines the cell's result: the
    resolved benchmark parameters, the full platform spec (two cells
    differing only in platform hash differently), the cost model of
    the *cell's own* runtime (an ``hpx`` cell is not invalidated by a
    ``std::async`` recalibration and vice versa), the counter
    configuration (counters instrument both runtimes), the counter
    *provider* identity (built-ins, the workload's own providers, and
    installed entry-point plugins — what is available to collect), the
    package version, and :data:`CACHE_KEY_VERSION`.

    The payload's ``benchmark`` is the parsed workload *name* alone —
    parameters embedded in the cell's canonical spelling are already
    folded into ``params`` by :meth:`CampaignSpec.cell_params` — so
    ``taskbench:shape=fft`` in a campaign matrix and ``{"benchmark":
    "taskbench", "params": {"shape": "fft"}}`` over the serve API hash
    to the same entry.
    """
    from repro.counters.providers import provider_identity
    from repro.workloads import WorkloadSpec

    assert spec.std is not None
    workload_name = WorkloadSpec.parse(cell.benchmark).name
    payload: dict[str, Any] = {
        "cache_key_version": CACHE_KEY_VERSION,
        "code_version": __version__,
        "benchmark": workload_name,
        "runtime": cell.runtime,
        "cores": cell.cores,
        "seed": cell.seed,
        "params": spec.cell_params(cell),
        "platform": spec.platform.to_json_dict(),
        "collect_counters": spec.collect_counters,
        "counter_specs": list(spec.counter_specs) if spec.counter_specs else None,
        "counter_providers": list(provider_identity(workload=workload_name)),
        "profile": spec.profile,
    }
    if cell.runtime == "hpx":
        payload["hpx"] = asdict(spec.hpx)
    else:
        payload["std"] = asdict(spec.std)
    return stable_hash(payload)
