"""Campaign description, cell enumeration, and stable cache keys.

A :class:`CampaignSpec` is the declarative form of the paper's
experiment matrix: which benchmarks, which runtimes, which core counts,
how many samples, and every parameter that influences a run (machine
model, runtime cost models, benchmark inputs, counter set, root seed).
It is the one description of an experiment, the single source of
truth from which

- the engine enumerates :class:`Cell`\\ s (one simulation run each),
- each cell lowers to the :class:`~repro.api.RunSpec` that describes
  its run (:meth:`CampaignSpec.run_spec`), whose key is the cell's
  cache key, and
- the artifact records how its data was produced; every table and
  figure reads its curves from an artifact.

Construction validates every run the matrix holds, so a spec that
could only fail when a cell runs is refused up front.  Cache keys
deliberately exclude matrix shape (which benchmarks/core counts ran
alongside), so growing a campaign reuses every cell already computed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Iterator, Mapping

from repro._version import __version__
from repro.api import RUNTIMES, RunSpec, stable_hash
from repro.experiments.config import DEFAULT_SAMPLES, QUICK_CORE_COUNTS
from repro.kernel.config import StdParams, default_std_params
from repro.platform.presets import default_platform, resolve_platform
from repro.platform.spec import PlatformSpec
from repro.runtime.config import HpxParams


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
    #: Counter names every cell collects, as :class:`~repro.api.RunSpec`
    #: takes them: ``None`` is the paper's set and ``()`` turns
    #: instrumentation off.
    counters: tuple[str, ...] | None = None
    #: Attach the causal profiler to every cell; the run results then
    #: carry a profile summary (critical path, work/span, parallelism).
    #: Profiling adds an instrumentation charge to every task activation
    #: (std: thread dispatch), so profiled cells cache separately from
    #: unprofiled ones.
    profile: bool = False

    def __post_init__(self) -> None:
        from repro.workloads import WorkloadSpec

        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        object.__setattr__(self, "platform", resolve_platform(self.platform))
        if self.std is None:
            object.__setattr__(self, "std", default_std_params())
        if self.counters is not None:
            object.__setattr__(self, "counters", tuple(self.counters))
        try:
            # Normalize every entry to the canonical WorkloadSpec
            # spelling, so cells, artifacts and cache keys never see
            # spelling variants; then validate every run of the matrix.
            normalized = []
            for entry in self.benchmarks:
                workload = entry if isinstance(entry, WorkloadSpec) else WorkloadSpec.parse(entry)
                workload.validate()
                normalized.append(workload.canonical())
            object.__setattr__(self, "benchmarks", tuple(normalized))
            for benchmark in self.benchmarks:
                for runtime in self.runtimes:
                    for cores in self.core_counts:
                        self.run_spec(Cell(benchmark, runtime, cores, 0, self.seed)).validate()
        except KeyError as exc:  # an unknown workload or preset name
            raise ValueError(exc.args[0]) from None

    def cells(self) -> Iterator[Cell]:
        """Enumerate the matrix in canonical (deterministic) order.

        Seeds vary per sample (``seed + sample``), so a point's samples
        differ and their median is meaningful.
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

    def run_spec(self, cell: Cell) -> RunSpec:
        """The :class:`~repro.api.RunSpec` of *cell*'s run."""
        from repro.workloads import WorkloadSpec

        return RunSpec(
            workload=WorkloadSpec.parse(cell.benchmark).name,
            params=self.cell_params(cell),
            runtime=cell.runtime,
            cores=cell.cores,
            platform=self.platform,
            costs=self.hpx if cell.runtime == "hpx" else self.std,
            counters=self.counters,
            profile=self.profile,
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
            "counters": None if self.counters is None else list(self.counters),
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
            counters=data["counters"],
            profile=data["profile"],
        )

    def spec_id(self) -> str:
        """Short stable identifier for the whole campaign (file naming)."""
        return stable_hash({"version": __version__, "spec": self.to_json_dict()})[:12]


def cell_cache_key(spec: CampaignSpec, cell: Cell) -> str:
    """Content-addressed cache key for one cell: its run's :meth:`~repro.api.RunSpec.key`.

    The run names the parsed workload with every parameter overlaid,
    so ``taskbench:shape=fft`` in a campaign matrix and ``{"benchmark":
    "taskbench", "params": {"shape": "fft"}}`` over the serve API hash
    to the same entry.
    """
    return spec.run_spec(cell).key()
