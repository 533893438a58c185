"""Input presets for the Inncabs suite.

The original Inncabs ships several input sets per benchmark; the paper
used the original sets "with the exception of QAP, which exceeded
memory limits" (only its smallest input ran).  We mirror that idea with
three presets per benchmark:

- ``small``  — seconds-fast inputs for tests and demos;
- ``default``— the calibrated inputs behind every reproduced table and
  figure (empty dict: the benchmark's own defaults);
- ``large``  — ~4x the default task count for heavier runs;
- ``paper``  — the *unscaled* paper-scale inputs (up to ~10^7..10^8
  tasks), offered only where the mesoscale cohort engine can run them
  (``mode=cohort``); the exact engine would take hours on these.

The workload registry serves these tables; look a preset up with
:func:`repro.workloads.workload_preset_params`.
"""

from __future__ import annotations

from typing import Any

from repro.inncabs.suite import available_benchmarks, get_benchmark

PRESETS: dict[str, dict[str, dict[str, Any]]] = {
    "alignment": {
        "small": {"nseq": 5, "seqlen": 60},
        "large": {"nseq": 32, "seqlen": 300},
    },
    "fft": {
        "small": {"n": 256, "cutoff": 4},
        "large": {"n": 1 << 14, "cutoff": 4},
    },
    "fib": {
        "small": {"n": 12},
        "large": {"n": 22},
        # True paper-scale input: 2*F(41)-1 = 3.3x10^8 tasks.  Run with
        # mode=cohort; the exact engine cannot replay this in reasonable
        # time (that scaling limit is why inputs were shrunk at all).
        "paper": {"n": 40},
    },
    "floorplan": {
        "small": {"cutoff": 3},
        "large": {"cutoff": 6},
    },
    "health": {
        "small": {"levels": 3, "branching": 3, "steps": 3},
        "large": {"levels": 7, "branching": 4, "steps": 12},
    },
    "intersim": {
        "small": {"rounds": 4, "tasks_per_round": 16, "interchanges": 6},
        "large": {"rounds": 80, "tasks_per_round": 320, "interchanges": 32},
    },
    "nqueens": {
        "small": {"n": 8, "cutoff": 2},
        "large": {"n": 13, "cutoff": 4},
    },
    "pyramids": {
        "small": {"width": 1024, "steps": 32, "chunk": 8, "block": 256},
        "large": {"width": 1 << 18, "steps": 192, "chunk": 16, "block": 1 << 12},
    },
    "qap": {
        "small": {"n": 6, "cutoff": 2},
        "large": {"n": 9, "cutoff": 4},
    },
    "round": {
        "small": {"players": 6, "rounds": 3},
        "large": {"players": 64, "rounds": 32},
    },
    "sort": {
        "small": {"n": 4096, "cutoff": 256},
        "large": {"n": 1 << 21, "cutoff": 1 << 12},
    },
    "sparselu": {
        "small": {"nb": 5, "bs": 16},
        "large": {"nb": 20, "bs": 96},
    },
    "strassen": {
        "small": {"n": 64, "cutoff": 16},
        "large": {"n": 512, "cutoff": 32},
    },
    "uts": {
        "small": {"b0": 10, "m": 3, "q": 0.3, "max_depth": 6},
        "large": {"b0": 120, "m": 4, "q": 0.31, "max_depth": 24},
        # ~2.5x10^7 expected nodes — the paper's UTS runs 1.7x10^7
        # tasks.  Cohort mode only (mean-value plan).
        "paper": {"b0": 120, "m": 4, "q": 0.33, "max_depth": 40},
    },
}


def validate_presets() -> None:
    """Every benchmark has small/large, and every listed preset (the
    ``paper`` tier is opt-in per benchmark) uses known parameter names."""
    from repro.workloads import workload_preset_params

    for name in available_benchmarks():
        bench = get_benchmark(name)
        table = PRESETS.get(name, {})
        for required in ("small", "large"):
            if required not in table:
                raise AssertionError(f"{name} is missing the {required!r} preset")
        for preset in table:
            bench.params_with_defaults(workload_preset_params(name, preset))
