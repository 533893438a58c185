"""Node model: the simulated machine behind one platform spec.

The contention/latency math lives in
:class:`repro.platform.resource.ResourceModel`; :class:`Machine` owns
the per-core state (hardware counters, busy time) and delegates every
segment to the resource model.  A machine is built from any
:class:`~repro.platform.spec.PlatformSpec` — the default is the paper's
platform (Table III): dual-socket Intel Ivy Bridge E5-2670v2, 10
cores/socket at 2.5 GHz, 25 MB shared L3 per socket, hyper-threading
disabled.

:class:`MachineSpec` remains as the legacy single-shape description
(N identical sockets); it converts losslessly to a ``PlatformSpec``
via :meth:`MachineSpec.to_platform` and is accepted everywhere a
platform is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.model.work import Work
from repro.platform.presets import resolve_platform
from repro.platform.resource import (
    Core,
    HardwareCounters,
    ResourceModel,
    SegmentTicket,
)
from repro.platform.spec import PlatformSpec, SocketSpec

__all__ = ["Core", "HardwareCounters", "Machine", "MachineSpec", "SegmentTicket"]


@dataclass(frozen=True)
class MachineSpec:
    """Legacy static description of a node with N identical sockets.

    Kept for backwards compatibility (and as the compact spelling for
    even shapes); :meth:`to_platform` is the lossless upgrade path to
    the declarative :class:`~repro.platform.spec.PlatformSpec`.
    """

    name: str = "ivybridge-2x10"
    sockets: int = 2
    cores_per_socket: int = 10
    freq_ghz: float = 2.5
    l3_bytes_per_socket: int = 25 * 1024 * 1024
    socket_peak_bw: float = 42e9  # bytes/s per socket
    per_core_bw: float = 7.5e9  # bytes/s a single core can draw
    cross_socket_factor: float = 1.6
    ram_bytes: int = 62 * 1024**3
    ipc: float = 1.6  # retired instructions per cycle (for the counter model)
    l3_pressure_alpha: float = 0.35  # extra-traffic slope once L3 overflows
    l3_max_factor: float = 2.5  # cap on the L3 overflow inflation

    @property
    def total_cores(self) -> int:
        return self.sockets * self.cores_per_socket

    def socket_of(self, core_index: int) -> int:
        if not 0 <= core_index < self.total_cores:
            raise IndexError(f"core {core_index} out of range")
        return core_index // self.cores_per_socket

    def to_platform(self) -> PlatformSpec:
        """The equivalent declarative platform (lossless)."""
        socket = SocketSpec(
            cores=self.cores_per_socket,
            freq_ghz=self.freq_ghz,
            l3_bytes=self.l3_bytes_per_socket,
            peak_bw=self.socket_peak_bw,
            per_core_bw=self.per_core_bw,
        )
        return PlatformSpec(
            name=self.name,
            sockets=(socket,) * self.sockets,
            cross_socket_factor=self.cross_socket_factor,
            ram_bytes=self.ram_bytes,
            ipc=self.ipc,
            l3_pressure_alpha=self.l3_pressure_alpha,
            l3_max_factor=self.l3_max_factor,
        )

    @classmethod
    def from_platform(cls, platform: PlatformSpec) -> "MachineSpec":
        """The legacy spelling of *platform* (homogeneous shapes only)."""
        if not platform.homogeneous:
            raise ValueError(
                f"platform {platform.name!r} has uneven sockets; "
                "it has no MachineSpec spelling"
            )
        socket = platform.sockets[0]
        return cls(
            name=platform.name,
            sockets=platform.num_sockets,
            cores_per_socket=socket.cores,
            freq_ghz=socket.freq_ghz,
            l3_bytes_per_socket=socket.l3_bytes,
            socket_peak_bw=socket.peak_bw,
            per_core_bw=socket.per_core_bw,
            cross_socket_factor=platform.cross_socket_factor,
            ram_bytes=platform.ram_bytes,
            ipc=platform.ipc,
            l3_pressure_alpha=platform.l3_pressure_alpha,
            l3_max_factor=platform.l3_max_factor,
        )


#: Anything a Machine (or Topology) accepts as its platform.
PlatformLike = Union[PlatformSpec, MachineSpec, str, None]


class Machine:
    """The simulated node: resolves Work into time and event counts."""

    def __init__(self, spec: PlatformLike = None) -> None:
        self.platform = resolve_platform(spec)
        self.resources = ResourceModel(self.platform)
        self.cores = [
            Core(index=i, socket=self.platform.socket_of(i))
            for i in range(self.platform.total_cores)
        ]

    # -- queries ---------------------------------------------------------

    def core(self, index: int) -> Core:
        return self.cores[index]

    def l3_pressure_factor(self, socket: int, extra_ws: int) -> float:
        """Traffic inflation once concurrent working sets overflow the L3."""
        return self.resources.l3_pressure_factor(socket, extra_ws)

    def total_offcore_bytes(self) -> int:
        return self.resources.total_offcore_bytes()

    # -- segment lifecycle -------------------------------------------------

    def segment_begin(
        self,
        core_index: int,
        work: Work,
        *,
        cross_socket_fraction: float = 0.0,
        speed_factor: float = 1.0,
    ) -> SegmentTicket:
        """Start executing *work* on core *core_index*.

        Returns a ticket carrying the segment duration under current
        contention.  *speed_factor* scales CPU time (>1 means slower;
        used by the kernel model for time-slicing dilation).
        """
        return self.resources.segment_begin(
            self.cores[core_index],
            work,
            cross_socket_fraction=cross_socket_fraction,
            speed_factor=speed_factor,
        )

    def segment_end(self, ticket: SegmentTicket, work: Work) -> None:
        """Finish the segment identified by *ticket*."""
        self.resources.segment_end(ticket, work)
