"""METG(eps): minimum effective task granularity, from the counters.

The Task Bench efficiency metric (Slaughter et al.; applied to HPX by
Wu et al.): for a fixed graph on ``P`` cores, parallel efficiency at
grain ``g`` is

    efficiency(g) = ideal_work / (P x wall)
                  = (tasks x g) / (P x wall_ns)

where ``tasks`` is read from the counter framework
(``/threads{locality#0/total}/count/cumulative``, minus the driver
task) and ``wall_ns`` is the simulated makespan.  **METG(eps)** is the
smallest grain at which efficiency still reaches ``1 - eps`` — found
here by doubling until the target is met, then bisecting over integer
nanoseconds.  The simulation is fully deterministic, so the sweep is
bit-identical across repeats with the same seed.

Results lower to derived-counter samples under the HPX name grammar:
``/taskbench{locality#0/<shape>}/metg@<eps>`` for the headline number
and ``/taskbench{locality#0/<shape>}/efficiency@<grain_ns>`` for every
probe point, streamable through any telemetry sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.inncabs.base import DEFAULT_SEED
from repro.telemetry.sample import Sample

if TYPE_CHECKING:
    from repro.api import RunSpec

__all__ = ["MetgProbe", "MetgResult", "metg_sweep", "TASK_COUNT_COUNTER"]

#: The counter the sweep reads its task count from.
TASK_COUNT_COUNTER = "/threads{locality#0/total}/count/cumulative"

#: Doubling past this grain declares the target unreachable (~4.4 min of
#: simulated work per task — far beyond any plausible METG).
GRAIN_CAP_NS = 1 << 38

#: Bisection stops when ``hi - lo <= hi >> REL_TOL_SHIFT`` (~1.6 %).
REL_TOL_SHIFT = 6


@dataclass(frozen=True)
class MetgProbe:
    """One efficiency measurement at one grain size."""

    grain_ns: int
    wall_ns: int
    tasks: int
    efficiency: float
    aborted: bool = False

    def to_json_dict(self) -> dict[str, Any]:
        """Plain-dict form for artifacts and fixtures."""
        return {
            "grain_ns": self.grain_ns,
            "wall_ns": self.wall_ns,
            "tasks": self.tasks,
            "efficiency": self.efficiency,
            "aborted": self.aborted,
        }


@dataclass(frozen=True)
class MetgResult:
    """Outcome of one METG sweep on one runtime."""

    shape: str
    width: int
    steps: int
    runtime: str
    cores: int
    eps: float
    seed: int
    platform: str
    #: Smallest grain (ns) reaching efficiency ``1 - eps``; ``None`` when
    #: the target is unreachable (e.g. the std model aborts on every probe).
    metg_ns: int | None
    probes: tuple[MetgProbe, ...]

    @property
    def target_efficiency(self) -> float:
        """The efficiency threshold ``1 - eps``."""
        return 1.0 - self.eps

    def to_json_dict(self) -> dict[str, Any]:
        """Deterministic JSON form (no wall-clock timestamps)."""
        return {
            "shape": self.shape,
            "width": self.width,
            "steps": self.steps,
            "runtime": self.runtime,
            "cores": self.cores,
            "eps": self.eps,
            "seed": self.seed,
            "platform": self.platform,
            "metg_ns": self.metg_ns,
            "probes": [p.to_json_dict() for p in sorted(self.probes, key=lambda p: p.grain_ns)],
        }

    def to_samples(self, run_id: str = "") -> list[Sample]:
        """Lower to derived-counter samples in the HPX name grammar.

        Probe points become ``.../efficiency@<grain_ns>`` rows
        timestamped with their own simulated makespan; the METG itself
        becomes one ``.../metg@<eps>`` row (value in ns).
        """
        instance = f"locality#0/{self.shape}"
        rid = run_id or f"taskbench/{self.runtime}/c{self.cores}"
        samples = [
            Sample(
                name=f"/taskbench{{{instance}}}/efficiency@{probe.grain_ns}",
                instance=instance,
                timestamp_ns=probe.wall_ns,
                value=round(probe.efficiency * 10000.0, 2),  # 0.01 % units
                unit="0.01%",
                run_id=rid,
            )
            for probe in sorted(self.probes, key=lambda p: p.grain_ns)
        ]
        if self.metg_ns is not None:
            samples.append(
                Sample(
                    name=f"/taskbench{{{instance}}}/metg@{self.eps:g}",
                    instance=instance,
                    timestamp_ns=max((p.wall_ns for p in self.probes), default=0),
                    value=float(self.metg_ns),
                    unit="ns",
                    run_id=rid,
                )
            )
        return samples


def _evaluate(spec: "RunSpec") -> MetgProbe:
    """Run one probe's :class:`~repro.api.RunSpec` and compute its efficiency."""
    from repro.api import Session

    result = Session().run(spec)
    grain_ns = spec.params["grain_ns"]
    if result.aborted:
        return MetgProbe(
            grain_ns=grain_ns, wall_ns=result.exec_time_ns, tasks=0, efficiency=0.0, aborted=True
        )
    tasks = int(result.counters[TASK_COUNT_COUNTER]) - 1  # exclude the driver
    wall = result.exec_time_ns
    efficiency = (tasks * grain_ns) / (spec.cores * wall) if wall > 0 else 0.0
    return MetgProbe(grain_ns=grain_ns, wall_ns=wall, tasks=tasks, efficiency=efficiency)


def metg_sweep(
    *,
    shape: str,
    width: int,
    steps: int,
    runtime: str = "hpx",
    cores: int,
    eps: float = 0.5,
    seed: int = DEFAULT_SEED,
    platform: Any = None,
    membytes: int = 0,
    degree: float = 3.0,
    grain_start_ns: int = 1024,
    progress: Callable[[MetgProbe], None] | None = None,
) -> MetgResult:
    """Binary-search the smallest grain with efficiency >= ``1 - eps``.

    Doubles the grain from *grain_start_ns* until the target is met
    (declaring it unreachable past :data:`GRAIN_CAP_NS` — e.g. when
    ``width/cores`` bounds the achievable efficiency below the target,
    or the std model aborts on live-thread blow-up), then bisects the
    bracket down to a ~1.6 % relative tolerance.  All arithmetic is
    over integer nanoseconds and every probe is a deterministic
    simulation, so repeated sweeps are bit-identical.

    Each probe is one :class:`~repro.api.RunSpec` run by
    :meth:`~repro.api.Session.run`; ``progress`` sees every probe as it
    lands.
    """
    from repro.api import RunSpec
    from repro.platform.presets import resolve_platform

    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if grain_start_ns < 1:
        raise ValueError(f"grain_start_ns must be >= 1, got {grain_start_ns}")
    spec = resolve_platform(platform)
    target = 1.0 - eps
    probes: dict[int, MetgProbe] = {}

    def eff(grain_ns: int) -> float:
        probe = probes.get(grain_ns)
        if probe is None:
            params = {
                "shape": shape,
                "width": width,
                "steps": steps,
                "grain_ns": grain_ns,
                "membytes": membytes,
                "degree": degree,
                "seed": seed,
            }
            probe = _evaluate(
                RunSpec(
                    "taskbench",
                    params,
                    runtime=runtime,
                    cores=cores,
                    platform=spec,
                    counters=(TASK_COUNT_COUNTER,),
                )
            )
            probes[grain_ns] = probe
            if progress is not None:
                progress(probe)
        return probe.efficiency

    def result(metg_ns: int | None) -> MetgResult:
        return MetgResult(
            shape=shape,
            width=width,
            steps=steps,
            runtime=runtime,
            cores=cores,
            eps=eps,
            seed=seed,
            platform=spec.name,
            metg_ns=metg_ns,
            probes=tuple(probes.values()),
        )

    # Bracket the target: grow (or shrink) by doubling.
    grain = grain_start_ns
    if eff(grain) >= target:
        hi = grain
        lo = 0  # sentinel: "no failing grain found yet"
        while hi > 1:
            candidate = hi // 2
            if eff(candidate) >= target:
                hi = candidate
            else:
                lo = candidate
                break
        if lo == 0:
            return result(hi)  # efficient all the way down to 1 ns
    else:
        lo = grain
        hi = 0
        while lo < GRAIN_CAP_NS:
            candidate = lo * 2
            if eff(candidate) >= target:
                hi = candidate
                break
            lo = candidate
        if hi == 0:
            return result(None)  # target unreachable

    # Invariant: eff(lo) < target <= eff(hi).  Bisect to relative tolerance.
    while hi - lo > max(1, hi >> REL_TOL_SHIFT):
        mid = (lo + hi) // 2
        if eff(mid) >= target:
            hi = mid
        else:
            lo = mid
    return result(hi)
