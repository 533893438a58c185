"""Description of one compute segment's resource demand.

A task body describes what one slice of computation costs in machine
terms: pure CPU nanoseconds plus off-core memory traffic.  The machine
model turns the traffic into time under the current bandwidth
contention and into hardware-counter increments (offcore requests).
"""

from __future__ import annotations

CACHE_LINE = 64

_object_setattr = object.__setattr__

# Default split of offcore requests by type, loosely matching a
# read-dominated numeric workload.  Benchmarks may override per Work.
DEFAULT_DATA_RD_FRACTION = 0.70
DEFAULT_CODE_RD_FRACTION = 0.05
DEFAULT_RFO_FRACTION = 0.25


class Work:
    """Resource demand of one compute segment.

    A plain ``__slots__`` value object (one is allocated per compute
    effect of every task — a hot path); treat instances as immutable.

    Parameters
    ----------
    cpu_ns:
        Pure on-core execution time at nominal frequency, in ns.
    membytes:
        Off-core memory traffic generated by the segment, in bytes.
    working_set:
        Approximate cache working set touched by the segment; used for
        the shared-L3 pressure model.  Defaults to ``membytes``.
    data_rd_fraction / code_rd_fraction / rfo_fraction:
        Split of the traffic into the three offcore request categories
        the paper sums for its bandwidth estimate
        (OFFCORE_REQUESTS: ALL_DATA_RD / DEMAND_CODE_RD / DEMAND_RFO).
    """

    __slots__ = (
        "cpu_ns",
        "membytes",
        "working_set",
        "data_rd_fraction",
        "code_rd_fraction",
        "rfo_fraction",
        "_offcore",  # offcore_requests(), computed at its first call
    )

    def __init__(
        self,
        cpu_ns: int,
        membytes: int = 0,
        working_set: int | None = None,
        data_rd_fraction: float = DEFAULT_DATA_RD_FRACTION,
        code_rd_fraction: float = DEFAULT_CODE_RD_FRACTION,
        rfo_fraction: float = DEFAULT_RFO_FRACTION,
    ) -> None:
        if cpu_ns < 0:
            raise ValueError("cpu_ns must be non-negative")
        if membytes < 0:
            raise ValueError("membytes must be non-negative")
        total = data_rd_fraction + code_rd_fraction + rfo_fraction
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"request fractions must sum to 1, got {total}")
        _set = _object_setattr
        _set(self, "cpu_ns", cpu_ns)
        _set(self, "membytes", membytes)
        _set(self, "working_set", working_set)
        _set(self, "data_rd_fraction", data_rd_fraction)
        _set(self, "code_rd_fraction", code_rd_fraction)
        _set(self, "rfo_fraction", rfo_fraction)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Work is immutable; cannot assign to {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Work is immutable; cannot delete {name!r}")

    def _key(self) -> tuple[object, ...]:
        return (
            self.cpu_ns,
            self.membytes,
            self.working_set,
            self.data_rd_fraction,
            self.code_rd_fraction,
            self.rfo_fraction,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Work:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Work(cpu_ns={self.cpu_ns}, membytes={self.membytes}, "
            f"working_set={self.working_set})"
        )

    @property
    def effective_working_set(self) -> int:
        return self.membytes if self.working_set is None else self.working_set

    def scaled(self, factor: float) -> "Work":
        """A copy with both CPU time and traffic scaled by *factor*
        (execution-order efficiency effects)."""
        if factor == 1.0:
            return self
        return Work(
            cpu_ns=round(self.cpu_ns * factor),
            membytes=round(self.membytes * factor),
            working_set=self.working_set,
            data_rd_fraction=self.data_rd_fraction,
            code_rd_fraction=self.code_rd_fraction,
            rfo_fraction=self.rfo_fraction,
        )

    def split_at(self, cpu_ns: int) -> tuple["Work", "Work"]:
        """Split into (first *cpu_ns* of work, remainder).

        Memory traffic is apportioned pro rata (remainder gets the
        rounding slack, so the two parts sum exactly to the whole);
        the working set and request mix are shared.  Used by the kernel
        scheduler to preempt a segment at the end of a time slice.
        """
        frac = cpu_ns / self.cpu_ns
        head_bytes = round(self.membytes * frac)
        head = Work(
            cpu_ns=cpu_ns,
            membytes=head_bytes,
            working_set=self.working_set,
            data_rd_fraction=self.data_rd_fraction,
            code_rd_fraction=self.code_rd_fraction,
            rfo_fraction=self.rfo_fraction,
        )
        rest = Work(
            cpu_ns=self.cpu_ns - cpu_ns,
            membytes=self.membytes - head_bytes,
            working_set=self.working_set,
            data_rd_fraction=self.data_rd_fraction,
            code_rd_fraction=self.code_rd_fraction,
            rfo_fraction=self.rfo_fraction,
        )
        return head, rest

    def scaled_traffic(self, factor: float) -> "Work":
        """A copy with memory traffic scaled by *factor* (locality effects)."""
        if factor == 1.0:
            return self
        return Work(
            cpu_ns=self.cpu_ns,
            membytes=round(self.membytes * factor),
            working_set=self.working_set,
            data_rd_fraction=self.data_rd_fraction,
            code_rd_fraction=self.code_rd_fraction,
            rfo_fraction=self.rfo_fraction,
        )

    def offcore_requests(self) -> tuple[int, int, int]:
        """(all_data_rd, demand_code_rd, demand_rfo) request counts.

        Computed once per instance: a Work is immutable, and
        ``ctx.compute`` shares one per distinct demand, so every segment
        of a workload's common shapes reads the same tuple."""
        try:
            return self._offcore
        except AttributeError:
            pass
        lines = self.membytes // CACHE_LINE
        data_rd = round(lines * self.data_rd_fraction)
        code_rd = round(lines * self.code_rd_fraction)
        rfo = lines - data_rd - code_rd
        requests = (data_rd, code_rd, max(0, rfo))
        _object_setattr(self, "_offcore", requests)
        return requests
