"""The paper's platform and protocol constants.

Table III platform (Hermione node): dual-socket Intel Ivy Bridge
E5-2670v2, 10 cores/socket @ 2.5 GHz, 25 MB shared L3 per socket,
62 GiB RAM, hyper-threading disabled.  Threads pinned sockets-first
(``--hpx:bind`` / ``taskset``); launch policy ``async``; 20 samples per
experiment with medians reported.  One experiment is one
:class:`~repro.campaign.spec.CampaignSpec`; its defaults come from here.

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

from repro.kernel.config import StdParams

#: Live threads at which the scaled std::async model aborts.
SCALED_THREAD_LIMIT = 3_000

#: Core grid of the strong-scaling figures (paper: 1..20 in 2s).
PAPER_CORE_COUNTS = (1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20)

#: A cheaper grid: Table V, and every campaign that names none.
QUICK_CORE_COUNTS = (1, 2, 4, 8, 10, 16, 20)

#: Samples per point unless a campaign names its own (paper: 20).
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
