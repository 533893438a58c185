"""Experiment configuration: the paper's platform and protocol.

Table III platform (Hermione node): dual-socket Intel Ivy Bridge
E5-2670v2, 10 cores/socket @ 2.5 GHz, 25 MB shared L3 per socket,
62 GiB RAM, hyper-threading disabled.  Threads pinned sockets-first
(``--hpx:bind`` / ``taskset``); launch policy ``async``; 20 samples per
experiment with medians reported.

**Scaled memory budget.**  The paper's failing benchmarks die at
80,000–97,000 live pthreads (~62 GiB of committed thread state).  Our
benchmark inputs are scaled down ~30x (Python cannot simulate 10^7
task events per run), so the committed-memory budget for the
``std::async`` model is scaled by the same factor: ~3,000 live threads.
The *mechanism* — live-thread explosion in recursive/fine-grained
benchmarks under thread-per-task execution — is identical; only the
absolute numbers shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.config import StdParams
from repro.platform.presets import default_platform, resolve_platform
from repro.platform.spec import PlatformSpec
from repro.runtime.config import HpxParams

#: Live threads at which the scaled std::async model aborts.
SCALED_THREAD_LIMIT = 3_000

#: Core counts used for the strong-scaling figures (paper: 1..20).
PAPER_CORE_COUNTS = (1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20)

#: A cheaper grid for quick runs/tests.
QUICK_CORE_COUNTS = (1, 2, 4, 8, 10, 16, 20)

#: Samples per experiment (paper: 20; medians reported).
PAPER_SAMPLES = 20
DEFAULT_SAMPLES = 3

#: The software counters of Section V-C.
SOFTWARE_COUNTERS = (
    "/threads{locality#0/total}/time/average",
    "/threads{locality#0/total}/time/average-overhead",
    "/threads{locality#0/total}/time/cumulative",
    "/threads{locality#0/total}/time/cumulative-overhead",
    "/threads{locality#0/total}/count/cumulative",
    "/threads{locality#0/total}/idle-rate",
)

#: The offcore PAPI counters summed for the bandwidth estimate.
PAPI_COUNTERS = (
    "/papi{locality#0/total}/OFFCORE_REQUESTS:ALL_DATA_RD",
    "/papi{locality#0/total}/OFFCORE_REQUESTS:DEMAND_CODE_RD",
    "/papi{locality#0/total}/OFFCORE_REQUESTS:DEMAND_RFO",
)

DEFAULT_COUNTERS = SOFTWARE_COUNTERS + PAPI_COUNTERS


def default_std_params() -> StdParams:
    """Kernel-model parameters with the scaled memory budget."""
    base = StdParams()
    return StdParams(
        ram_budget_bytes=SCALED_THREAD_LIMIT * base.thread_commit_bytes,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs to be reproducible."""

    platform: PlatformSpec = field(default_factory=default_platform)
    hpx: HpxParams = field(default_factory=HpxParams)
    std: StdParams = field(default_factory=default_std_params)
    samples: int = DEFAULT_SAMPLES
    core_counts: tuple[int, ...] = QUICK_CORE_COUNTS
    seed: int = 20160523

    def __post_init__(self) -> None:
        # A preset name or platform file resolves to its spec.
        object.__setattr__(self, "platform", resolve_platform(self.platform))
