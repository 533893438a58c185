"""The FMM-like benchmark and its application counter provider.

Models one time step of a fast multipole method solver: a multipole
(M2L) sweep over the subgrids followed by the particle-particle (P2P)
near-field phase.  The P2P kernel exists in three implementation
variants — ``vectorized``, ``scalar`` and ``legacy`` — and the app
selects a variant **per core type**: core types are ranked by clock
frequency and the fastest type gets the vectorized kernel, the next
the scalar one, anything slower the legacy fallback.  On the
asymmetric ``hybrid-4p8e`` preset this splits the subgrid population
between two kernels, and the per-variant counters
``/fmm{locality#0/total}/p2p-subgrids@<variant>`` expose the split
through the standard counter grammar.

Counter registration goes exclusively through the public provider API:
:class:`repro.counters.AppCounterSet` declared here *is* the
``CounterProvider`` carried by the workload's registry entry.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping

# Public API only — the import-boundary test enforces that this package
# never reaches into repro.counters submodules.
from repro.counters import AppCounter, AppCounterSet
from repro.inncabs.base import Benchmark, BenchmarkInfo

__all__ = [
    "FMM_COUNTER_PROVIDER",
    "FMM_PRESETS",
    "FmmBenchmark",
    "VARIANTS",
    "variant_for_core",
]

#: Kernel variants, fastest-core-type first.
VARIANTS = ("vectorized", "scalar", "legacy")

#: Relative cost of one P2P subgrid under each variant (the vectorized
#: kernel is the tuned one; the legacy fallback is the slow reference).
_VARIANT_COST = {"vectorized": 1.0, "scalar": 2.25, "legacy": 3.75}

#: The app's counter set — also the workload's CounterProvider.
FMM_COUNTER_PROVIDER = AppCounterSet("fmm", provider="fmm")

_P2P_LAUNCHED: dict[str, AppCounter] = {
    variant: FMM_COUNTER_PROVIDER.counter(
        "p2p-subgrids",
        parameters=variant,
        help_text=f"P2P subgrids executed by the {variant} kernel variant",
        unit="subgrids",
    )
    for variant in VARIANTS
}

_MULTIPOLE_EVALS = FMM_COUNTER_PROVIDER.counter(
    "multipole-evals",
    help_text="Multipole (M2L) expansions evaluated",
    unit="evals",
)


def variant_for_core(platform: Any, core: int) -> str:
    """Kernel variant an FMM build selects for *core* on *platform*.

    Core types are ranked by socket clock frequency (fastest first);
    rank 0 runs the vectorized kernel, rank 1 the scalar one, anything
    further down the legacy fallback.  Homogeneous platforms therefore
    run vectorized everywhere.
    """
    freqs = sorted({socket.freq_ghz for socket in platform.sockets}, reverse=True)
    rank = freqs.index(platform.sockets[platform.socket_of(core)].freq_ghz)
    return VARIANTS[min(rank, len(VARIANTS) - 1)]


def _jitter(seed: int, index: int) -> float:
    """Deterministic per-subgrid cost jitter in [0.875, 1.125)."""
    state = (seed * 6364136223846793005 + index * 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
    return 0.875 + (state >> 40) / (1 << 24) * 0.25


def _multipole_batch(ctx: Any, count: int, m2l_ns: int) -> Iterator[Any]:
    """Evaluate *count* multipole expansions (the far-field sweep)."""
    for _ in range(count):
        _MULTIPOLE_EVALS.increment()
        yield ctx.compute(m2l_ns, membytes=4096)
    return count


def _p2p_batch(
    ctx: Any, variant: str, subgrids: list[int], neighbors: int, p2p_ns: int, seed: int
) -> Iterator[Any]:
    """Run the near-field kernel over one batch of subgrids.

    The batch is bound to one kernel *variant* (chosen from the core
    type the batch was planned for); each subgrid costs the variant's
    relative factor times the base grain, and contributes ``neighbors``
    particle-particle interactions to the returned total.
    """
    cost = _VARIANT_COST[variant]
    interactions = 0
    for index in subgrids:
        _P2P_LAUNCHED[variant].increment()
        grain = int(p2p_ns * cost * _jitter(seed, index))
        yield ctx.compute(grain, membytes=2048)
        interactions += neighbors
    return interactions


def _fmm_root(
    ctx: Any, subgrids: int, neighbors: int, p2p_ns: int, m2l_ns: int, seed: int
) -> Iterator[Any]:
    """One FMM time step: multipole sweep, then the P2P near field.

    Work is planned per worker; batch *k* is bound to core ``k`` of the
    executing platform (workers occupy the leading cores), so the
    kernel variant split across core types is deterministic regardless
    of work stealing.
    """
    platform = ctx.platform
    batches = max(1, min(ctx.num_workers, subgrids))

    futures = []
    for k in range(batches):
        share = len(range(k, subgrids, batches))
        fut = yield ctx.async_(_multipole_batch, share, m2l_ns)
        futures.append(fut)
    evals = yield ctx.wait_all(futures)

    futures = []
    for k in range(batches):
        variant = variant_for_core(platform, k % platform.total_cores)
        batch = list(range(k, subgrids, batches))
        fut = yield ctx.async_(_p2p_batch, variant, batch, neighbors, p2p_ns, seed)
        futures.append(fut)
    interactions = yield ctx.wait_all(futures)

    return {"multipole_evals": sum(evals), "p2p_interactions": sum(interactions)}


#: Preset parameter overrides (``default`` is implicit and empty).
FMM_PRESETS: Mapping[str, Mapping[str, Any]] = {
    "small": {"subgrids": 16},
    "large": {"subgrids": 192},
}


class FmmBenchmark(Benchmark):
    """The FMM mini-app as a registry workload."""

    info = BenchmarkInfo(
        name="fmm",
        structure="loop-like",
        synchronization="none",
        paper_task_duration_us=4.0,
        paper_granularity="moderate",
        paper_scaling_std="n/a (mini-app)",
        paper_scaling_hpx="n/a (mini-app)",
        description="FMM-like multipole + P2P step; per-core-type kernel variants "
        "counted via application counters",
    )

    default_params: Mapping[str, Any] = {
        "subgrids": 48,
        "neighbors": 26,
        "p2p_ns": 4000,
        "m2l_ns": 2500,
    }
    param_minimums = {"subgrids": 1, "neighbors": 0, "p2p_ns": 0, "m2l_ns": 0}

    def make_root(self, params: Mapping[str, Any]) -> tuple[Callable[..., Any], tuple]:
        """Entry point: ``_fmm_root(ctx, subgrids, neighbors, ...)``."""
        return _fmm_root, (
            int(params["subgrids"]),
            int(params["neighbors"]),
            int(params["p2p_ns"]),
            int(params["m2l_ns"]),
            int(params["seed"]),
        )

    def verify(self, result: Any, params: Mapping[str, Any]) -> bool:
        """Every subgrid was expanded once and interacted with every neighbor."""
        expected = {
            "multipole_evals": int(params["subgrids"]),
            "p2p_interactions": int(params["subgrids"]) * int(params["neighbors"]),
        }
        return result == expected
