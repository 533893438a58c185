"""Scaling analysis over strong-scaling curves.

Downstream-user conveniences the paper's discussion implies: speedups,
parallel efficiency, the serial-fraction estimate (Karp-Flatt), and the
knee detector (:func:`~repro.experiments.harness.knee`, the same search
behind :meth:`ScalingCurve.scales_to`'s "scales to N" label).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.harness import ScalingCurve, knee


@dataclass(frozen=True)
class ScalingAnalysis:
    """Summary numbers of one strong-scaling curve."""

    benchmark: str
    runtime: str
    max_speedup: float
    max_speedup_cores: int
    efficiency_at_max: float
    serial_fraction: float | None  # Karp-Flatt at the largest core count
    knee_cores: int | None  # where improvement stops


def parallel_efficiency(curve: ScalingCurve, cores: int) -> float | None:
    """speedup(cores) / cores, in [0, 1]-ish."""
    speedup = curve.speedup(cores)
    return None if speedup is None else speedup / cores


def karp_flatt(curve: ScalingCurve, cores: int) -> float | None:
    """Experimentally determined serial fraction e = (1/S - 1/p)/(1 - 1/p).

    Near-zero: overhead-free scaling; growing with p: overhead-bound
    (the very fine Inncabs benchmarks); constant: a genuine serial
    fraction (Amdahl).
    """
    if cores < 2:
        raise ValueError("Karp-Flatt needs at least 2 cores")
    speedup = curve.speedup(cores)
    if speedup is None or speedup <= 0:
        return None
    return (1.0 / speedup - 1.0 / cores) / (1.0 - 1.0 / cores)


def analyze(curve: ScalingCurve) -> ScalingAnalysis:
    """Full summary of one curve."""
    live = [p for p in curve.points if not p.aborted]
    speedups = {p.cores: s for p in live if (s := curve.speedup(p.cores)) is not None}
    if not speedups:
        return ScalingAnalysis(
            benchmark=curve.benchmark,
            runtime=curve.runtime,
            max_speedup=0.0,
            max_speedup_cores=0,
            efficiency_at_max=0.0,
            serial_fraction=None,
            knee_cores=None,
        )
    max_cores = max(speedups, key=lambda c: speedups[c])
    largest = max(speedups)
    return ScalingAnalysis(
        benchmark=curve.benchmark,
        runtime=curve.runtime,
        max_speedup=speedups[max_cores],
        max_speedup_cores=max_cores,
        efficiency_at_max=speedups[max_cores] / max_cores,
        serial_fraction=karp_flatt(curve, largest) if largest >= 2 else None,
        knee_cores=knee(curve),
    )
