"""PAPI counters (``/papi/...``) wired to the machine's hardware events.

Reading a hardware event set at every context switch is more expensive
than software timestamping, so PAPI counters carry a larger per-task
instrumentation cost — the source of the "up to 16 %" collection
overhead the paper reports for very fine tasks (vs ≤10 % for the
software counters alone).
"""

from __future__ import annotations

from repro.counters.base import (
    CounterEnvironment,
    CounterInfo,
    MonotonicCounter,
    PerformanceCounter,
)
from repro.counters.names import CounterName
from repro.counters.registry import CounterTypeEntry
from repro.counters.types import CounterType
from repro.papi.events import PAPI_EVENTS, PapiEvent

PAPI_INSTRUMENT_NS = 30  # per event set, per task activation


def papi_counter_types(env: CounterEnvironment) -> list[CounterTypeEntry]:
    """One ``/papi/<EVENT>`` type per hardware event the platform's
    counter model exposes (all known events when no PAPI substrate is in
    the environment); provider ``builtin.papi``."""
    available = None if env.papi is None else getattr(env.papi, "events", None)
    return [
        CounterTypeEntry(
            info=CounterInfo(
                type_name=f"/papi/{event.name}",
                counter_type=CounterType.MONOTONICALLY_INCREASING,
                help_text=event.description,
                unit="events",
                instrument_ns_per_task=PAPI_INSTRUMENT_NS,
            ),
            factory=_make_factory(event),
        )
        for event in PAPI_EVENTS
        if available is None or event.name in available
    ]


def _make_factory(event: PapiEvent):
    def factory(
        name: CounterName, info: CounterInfo, env: CounterEnvironment
    ) -> PerformanceCounter:
        papi = env.require("papi")
        if name.instance_name == "total":
            return MonotonicCounter(name, info, env, lambda: papi.read(event))
        if name.instance_name == "worker-thread":
            runtime = env.require("runtime")
            index = name.instance_index
            if index is None or not 0 <= index < runtime.num_workers:
                raise ValueError(f"bad worker-thread index in {name}")
            core_index = runtime.workers[index].core_index
            return MonotonicCounter(name, info, env, lambda: papi.read(event, core_index))
        raise ValueError(f"unknown instance {name.instance_name!r} in {name}")

    return factory
