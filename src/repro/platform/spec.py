"""Validated, declarative description of a simulated node.

A :class:`PlatformSpec` is the single source of truth for the hardware
a simulation runs on: per-socket core counts, frequencies, cache sizes
and memory-controller bandwidths, the NUMA distance matrix, the global
interconnect factor, and the hardware events the platform's counter
model exposes.  Specs are frozen, hashable, and round-trip losslessly
through JSON and TOML, which is what lets campaign cache keys be
content-addressed over them.

Sockets are described individually, so uneven shapes — a 1-socket
desktop, an asymmetric big.LITTLE-style pair — are first-class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping, Sequence

#: Hardware events every platform may expose (the counter model).
#: Names match :mod:`repro.papi.events`.
KNOWN_PAPI_EVENTS: tuple[str, ...] = (
    "OFFCORE_REQUESTS:ALL_DATA_RD",
    "OFFCORE_REQUESTS:DEMAND_CODE_RD",
    "OFFCORE_REQUESTS:DEMAND_RFO",
    "PAPI_TOT_CYC",
    "PAPI_TOT_INS",
)


class PlatformError(ValueError):
    """A platform description failed validation."""


#: In-band cost of evaluating one counter through the (simulated)
#: counter API, on the paper's Table III node.  Platforms scale this
#: with their single-thread speed via :func:`scaled_query_cost_ns`.
DEFAULT_COUNTER_QUERY_COST_NS = 800

#: Single-thread throughput (GHz x IPC) of the reference node the
#: 800 ns query cost was calibrated on.
_REFERENCE_QUERY_THROUGHPUT = 2.5 * 1.6


def scaled_query_cost_ns(freq_ghz: float, ipc: float) -> int:
    """Per-counter query cost scaled to a platform's single-thread speed.

    The counter API walk is serial scalar code, so its cost shrinks
    with clock x IPC relative to the reference Ivy Bridge node (where
    it is exactly :data:`DEFAULT_COUNTER_QUERY_COST_NS`).
    """
    return round(DEFAULT_COUNTER_QUERY_COST_NS * _REFERENCE_QUERY_THROUGHPUT / (freq_ghz * ipc))


@dataclass(frozen=True)
class SocketSpec:
    """One socket: cores, clock, shared cache, memory controller."""

    cores: int
    freq_ghz: float = 2.5
    l3_bytes: int = 25 * 1024 * 1024
    peak_bw: float = 42e9  # bytes/s the socket's controller sustains
    per_core_bw: float = 7.5e9  # bytes/s a single core can draw

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise PlatformError(f"socket needs at least one core, got {self.cores}")
        if self.freq_ghz <= 0:
            raise PlatformError(f"freq_ghz must be positive, got {self.freq_ghz}")
        if self.l3_bytes <= 0:
            raise PlatformError(f"l3_bytes must be positive, got {self.l3_bytes}")
        if self.peak_bw <= 0 or self.per_core_bw <= 0:
            raise PlatformError("socket bandwidths must be positive")

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "cores": self.cores,
            "freq_ghz": self.freq_ghz,
            "l3_bytes": self.l3_bytes,
            "peak_bw": self.peak_bw,
            "per_core_bw": self.per_core_bw,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "SocketSpec":
        _check_keys("socket", data, required=("cores",), optional=tuple(_SOCKET_OPTIONAL))
        kwargs: dict[str, Any] = {"cores": int(data["cores"])}
        for key in _SOCKET_OPTIONAL:
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs)


_SOCKET_OPTIONAL = ("freq_ghz", "l3_bytes", "peak_bw", "per_core_bw")

_PLATFORM_REQUIRED = ("name", "sockets")
_PLATFORM_OPTIONAL = (
    "cross_socket_factor",
    "numa_distance",
    "ram_bytes",
    "ipc",
    "l3_pressure_alpha",
    "l3_max_factor",
    "counter_query_cost_ns",
    "papi_events",
)


def _check_keys(
    what: str,
    data: Mapping[str, Any],
    *,
    required: tuple[str, ...],
    optional: tuple[str, ...],
) -> None:
    """Schema validation: every required key present, no unknown keys."""
    missing = [key for key in required if key not in data]
    if missing:
        raise PlatformError(f"{what} spec is missing required key(s): {', '.join(missing)}")
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise PlatformError(
            f"{what} spec has unknown key(s): {', '.join(unknown)}; "
            f"known: {', '.join(required + optional)}"
        )


@dataclass(frozen=True)
class PlatformSpec:
    """Static description of the simulated node (any socket shape)."""

    name: str
    sockets: tuple[SocketSpec, ...]
    cross_socket_factor: float = 1.6  # default interconnect service-time factor
    #: Optional NUMA distance matrix (relative service-time factors,
    #: hwloc ``distances``-style); ``None`` derives a uniform matrix
    #: from ``cross_socket_factor``.
    numa_distance: tuple[tuple[float, ...], ...] | None = None
    ram_bytes: int = 62 * 1024**3
    ipc: float = 1.6  # retired instructions per cycle (counter model)
    l3_pressure_alpha: float = 0.35  # extra-traffic slope once L3 overflows
    l3_max_factor: float = 2.5  # cap on the L3 overflow inflation
    #: In-band cost (ns) of evaluating one counter through the counter
    #: API from a periodic query task; scales counter-overhead
    #: experiments with the platform's single-thread speed.
    counter_query_cost_ns: int = DEFAULT_COUNTER_QUERY_COST_NS
    #: Hardware events the platform's counter model exposes.
    papi_events: tuple[str, ...] = KNOWN_PAPI_EVENTS

    def __post_init__(self) -> None:
        if not self.name:
            raise PlatformError("platform needs a non-empty name")
        if not isinstance(self.sockets, tuple):
            object.__setattr__(self, "sockets", tuple(self.sockets))
        if not self.sockets:
            raise PlatformError(f"platform {self.name!r} needs at least one socket")
        for sock in self.sockets:
            if not isinstance(sock, SocketSpec):
                raise PlatformError(f"platform {self.name!r}: sockets must be SocketSpec")
        if self.cross_socket_factor < 1.0:
            raise PlatformError(
                f"platform {self.name!r}: cross_socket_factor must be >= 1, "
                f"got {self.cross_socket_factor}"
            )
        if self.ram_bytes <= 0:
            raise PlatformError(f"platform {self.name!r}: ram_bytes must be positive")
        if self.ipc <= 0:
            raise PlatformError(f"platform {self.name!r}: ipc must be positive")
        if self.l3_pressure_alpha < 0 or self.l3_max_factor < 1.0:
            raise PlatformError(
                f"platform {self.name!r}: l3_pressure_alpha must be >= 0 and "
                "l3_max_factor >= 1"
            )
        if self.counter_query_cost_ns < 1:
            raise PlatformError(
                f"platform {self.name!r}: counter_query_cost_ns must be >= 1, "
                f"got {self.counter_query_cost_ns}"
            )
        if self.numa_distance is not None:
            object.__setattr__(
                self, "numa_distance", tuple(tuple(row) for row in self.numa_distance)
            )
            self._validate_numa()
        unknown = sorted(set(self.papi_events) - set(KNOWN_PAPI_EVENTS))
        if unknown:
            raise PlatformError(
                f"platform {self.name!r}: unknown papi event(s): {', '.join(unknown)}; "
                f"known: {', '.join(KNOWN_PAPI_EVENTS)}"
            )
        if not isinstance(self.papi_events, tuple):
            object.__setattr__(self, "papi_events", tuple(self.papi_events))

    def _validate_numa(self) -> None:
        matrix = self.numa_distance
        assert matrix is not None
        n = len(self.sockets)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise PlatformError(f"platform {self.name!r}: numa_distance must be a {n}x{n} matrix")
        for i, row in enumerate(matrix):
            for j, value in enumerate(row):
                if value < 1.0:
                    raise PlatformError(
                        f"platform {self.name!r}: numa_distance[{i}][{j}] must be >= 1"
                    )
                if i == j and value != 1.0:
                    raise PlatformError(
                        f"platform {self.name!r}: numa_distance diagonal must be 1.0"
                    )

    # -- geometry ----------------------------------------------------------

    @cached_property
    def _socket_starts(self) -> tuple[int, ...]:
        """First global core index of each socket."""
        starts = []
        offset = 0
        for sock in self.sockets:
            starts.append(offset)
            offset += sock.cores
        return tuple(starts)

    @property
    def num_sockets(self) -> int:
        return len(self.sockets)

    @cached_property
    def total_cores(self) -> int:
        return sum(sock.cores for sock in self.sockets)

    @property
    def homogeneous(self) -> bool:
        """True when every socket has the same shape."""
        return all(sock == self.sockets[0] for sock in self.sockets[1:])

    def socket_of(self, core_index: int) -> int:
        """Socket owning global core *core_index* (IndexError if out of range)."""
        if not 0 <= core_index < self.total_cores:
            raise IndexError(f"core {core_index} out of range")
        socket = 0
        for start in self._socket_starts[1:]:
            if core_index < start:
                break
            socket += 1
        return socket

    def core_local(self, core_index: int) -> tuple[int, int]:
        """(socket, local core index) of global core *core_index*."""
        socket = self.socket_of(core_index)
        return socket, core_index - self._socket_starts[socket]

    def core_range(self, socket: int) -> range:
        """Global core indices belonging to *socket*."""
        start = self._socket_starts[socket]
        return range(start, start + self.sockets[socket].cores)

    def socket_spec_of(self, core_index: int) -> SocketSpec:
        return self.sockets[self.socket_of(core_index)]

    # -- interconnect ------------------------------------------------------

    def numa_factor(self, src: int, dst: int) -> float:
        """Relative service-time factor for traffic from socket *src*
        to memory on socket *dst*."""
        if self.numa_distance is not None:
            return self.numa_distance[src][dst]
        return 1.0 if src == dst else self.cross_socket_factor

    def remote_factor(self, socket: int) -> float:
        """Mean service-time factor for *socket*'s off-socket traffic
        (the single number the segment model's ``cross_socket_fraction``
        is scaled by)."""
        others = [self.numa_factor(socket, dst) for dst in range(self.num_sockets) if dst != socket]
        if not others:
            return self.cross_socket_factor
        return sum(others) / len(others)

    # -- (de)serialization -------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        """Lossless canonical encoding (also the cache-key payload)."""
        return {
            "name": self.name,
            "sockets": [sock.to_json_dict() for sock in self.sockets],
            "cross_socket_factor": self.cross_socket_factor,
            "numa_distance": (
                [list(row) for row in self.numa_distance]
                if self.numa_distance is not None
                else None
            ),
            "ram_bytes": self.ram_bytes,
            "ipc": self.ipc,
            "l3_pressure_alpha": self.l3_pressure_alpha,
            "l3_max_factor": self.l3_max_factor,
            "counter_query_cost_ns": self.counter_query_cost_ns,
            "papi_events": list(self.papi_events),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "PlatformSpec":
        _check_keys("platform", data, required=_PLATFORM_REQUIRED, optional=_PLATFORM_OPTIONAL)
        sockets_data = data["sockets"]
        if not isinstance(sockets_data, Sequence) or isinstance(sockets_data, (str, bytes)):
            raise PlatformError("platform 'sockets' must be a list of socket tables")
        kwargs: dict[str, Any] = {
            "name": data["name"],
            "sockets": tuple(SocketSpec.from_json_dict(sock) for sock in sockets_data),
        }
        for key in _PLATFORM_OPTIONAL:
            if key not in data or data[key] is None:
                continue
            value = data[key]
            if key == "numa_distance":
                value = tuple(tuple(float(v) for v in row) for row in value)
            elif key == "papi_events":
                value = tuple(value)
            kwargs[key] = value
        return cls(**kwargs)

    def describe(self) -> str:
        """Multi-line summary used by ``repro platform show``."""
        lines = [
            f"platform {self.name}: {self.num_sockets} socket(s), {self.total_cores} cores",
            f"  ram {self.ram_bytes / 1024**3:.0f} GiB | ipc {self.ipc} | "
            f"interconnect x{self.cross_socket_factor}",
        ]
        for s, sock in enumerate(self.sockets):
            lines.append(
                f"  socket#{s}: {sock.cores} cores @ {sock.freq_ghz} GHz | "
                f"L3 {sock.l3_bytes / 1024**2:.0f} MB | "
                f"bw {sock.peak_bw / 1e9:.0f} GB/s (per-core {sock.per_core_bw / 1e9:.1f})"
            )
        if self.numa_distance is not None:
            lines.append("  numa distances:")
            for row in self.numa_distance:
                lines.append("    " + "  ".join(f"{v:4.1f}" for v in row))
        return "\n".join(lines)
