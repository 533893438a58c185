"""Task context: the API surface a benchmark task body programs against.

This is the reproduction of Table II in the paper — the benchmarks call
``ctx.async_`` / ``ctx.wait`` / ``ctx.new_mutex`` and the *same source*
runs on the HPX-style runtime (``hpx::async``/``hpx::future``/
``hpx::lcos::local::mutex``) and the Standard C++ model (``std::async``/
``std::future``/``std::mutex``): only the executing context differs.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.model.effects import Await, AwaitAll, Compute, Lock, Spawn, Unlock, YieldNow
from repro.model.work import Work

# Shared effects for the common ``ctx.compute(cpu_ns, membytes=...)`` call
# shape (see TaskContext.compute).  Keyed by (cpu_ns, membytes); emptied
# when full, so a long-lived process keeps caching its current workload.
_COMPUTE_CACHE: dict[tuple[Work | int, int], Compute] = {}
_COMPUTE_CACHE_MAX = 1024


class TaskContext:
    """The ``ctx`` every task body of one runtime receives.

    Each runtime builds one context and passes it to all of its tasks:
    nothing here is per-task state.  The effect-constructing methods are
    pure; only :meth:`new_mutex` talks to the runtime directly (mutex
    creation is instantaneous and requires no scheduling decision).
    """

    __slots__ = ("_runtime",)

    def __init__(self, runtime: Any) -> None:
        self._runtime = runtime

    # -- identification -------------------------------------------------

    @property
    def runtime_name(self) -> str:
        """``"hpx"`` or ``"std"`` — occasionally useful in examples."""
        return self._runtime.name

    @property
    def num_workers(self) -> int:
        """Number of cores/workers the runtime is executing on."""
        return self._runtime.num_workers

    @property
    def platform(self) -> Any:
        """The executing node's :class:`~repro.platform.spec.PlatformSpec`.

        Lets platform-sensitive workloads (e.g. the FMM mini-app picking
        kernel variants per core type) plan against the simulated
        hardware without reaching into runtime internals.
        """
        return self._runtime.machine.platform

    # -- effect constructors ---------------------------------------------

    def async_(
        self,
        fn: Callable[..., Any],
        *args: Any,
        policy: str = "async",
        stack_bytes: int = 0,
    ) -> Spawn:
        """``hpx::async(f, ...)`` / ``std::async(std::launch::async, f, ...)``."""
        return Spawn(fn, args, policy, stack_bytes)

    def wait(self, future: Any) -> Await:
        """``future.get()`` — suspend until ready, resume with the value."""
        return Await(future)

    def wait_all(self, futures: Sequence[Any]) -> AwaitAll:
        """Join a vector of futures (``hpx::when_all(...).get()``)."""
        return AwaitAll(tuple(futures))

    def compute(self, work: Work | int, membytes: int = 0, **kwargs: Any) -> Compute:
        """Consume machine resources.

        Accepts either a pre-built :class:`Work` or a raw ``cpu_ns``
        (plus optional ``membytes`` and further :class:`Work` kwargs).
        """
        if work.__class__ is Work:
            return Compute(work=work)
        if not kwargs:
            # Hot path: benchmarks call ``ctx.compute(cpu_ns, membytes=...)``
            # with a handful of distinct values millions of times.  Work and
            # Compute are immutable, so identical demands share one effect.
            key = (work, membytes)
            cached = _COMPUTE_CACHE.get(key)
            if cached is not None:
                return cached
            effect = Compute(work=Work(cpu_ns=int(work), membytes=membytes))
            if len(_COMPUTE_CACHE) >= _COMPUTE_CACHE_MAX:
                _COMPUTE_CACHE.clear()
            _COMPUTE_CACHE[key] = effect
            return effect
        if isinstance(work, Work):  # Work subclass: honour it verbatim
            return Compute(work=work)
        return Compute(work=Work(cpu_ns=int(work), membytes=membytes, **kwargs))

    def lock(self, mutex: Any) -> Lock:
        """``mutex.lock()`` — may suspend the task."""
        return Lock(mutex=mutex)

    def unlock(self, mutex: Any) -> Unlock:
        """``mutex.unlock()``."""
        return Unlock(mutex=mutex)

    def yield_now(self) -> YieldNow:
        """``hpx::this_thread::yield()`` / ``std::this_thread::yield()``."""
        return YieldNow()

    # -- direct runtime services ------------------------------------------

    def new_mutex(self) -> Any:
        """Create a mutex understood by the executing runtime."""
        return self._runtime.create_mutex()
