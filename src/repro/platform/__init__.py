"""Declarative platform layer: platform specs, resources, presets.

The paper's figures are all products of one node (Table III's 2×10-core
Ivy Bridge).  This package frees that axis: a validated, declarative
:class:`PlatformSpec` describes any simulated node (sockets with
per-socket core count/frequency/cache/bandwidth, NUMA distances,
interconnect factor, exposed hardware events), a single
:class:`ResourceModel` owns every piece of contention/latency math, and
a preset registry plus TOML/JSON file loading make platforms sweepable
inputs — ``Session(platform=...)``, ``repro run --platform``, campaign
cells keyed by platform.  A node is always a :class:`PlatformSpec` or a
designator (preset name or platform file) that :func:`resolve_platform`
turns into one.
"""

from repro.platform.io import load_platform_file, platform_to_toml, save_platform_file
from repro.platform.presets import (
    DEFAULT_PLATFORM,
    default_platform,
    get_platform,
    platform_names,
    resolve_platform,
)
from repro.platform.resource import (
    Core,
    HardwareCounters,
    MemoryController,
    MemoryTrafficStats,
    ResourceModel,
    SegmentTicket,
)
from repro.platform.spec import PlatformError, PlatformSpec, SocketSpec

__all__ = [
    "DEFAULT_PLATFORM",
    "Core",
    "HardwareCounters",
    "MemoryController",
    "MemoryTrafficStats",
    "PlatformError",
    "PlatformSpec",
    "ResourceModel",
    "SegmentTicket",
    "SocketSpec",
    "default_platform",
    "get_platform",
    "load_platform_file",
    "platform_names",
    "platform_to_toml",
    "resolve_platform",
    "save_platform_file",
]
