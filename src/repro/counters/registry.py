"""Counter-type registry: discovery and creation by name.

The paper: "Performance Counter instances are accessed by name, and
these names have a predefined structure … since all counters expose
their data using the same API, any code consuming counter data can be
utilized to access arbitrary system information with minimal effort."

``discover_counters`` expands wildcard instances
(``/threads{locality#0/worker-thread#*}/count/cumulative``);
``create_counter`` instantiates one concrete counter.  The special
``arithmetics`` and ``statistics`` objects build derived counters on
top of other registered counters.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.counters.aggregating import DEFAULT_WINDOW, StatisticsCounter
from repro.counters.arithmetic import ArithmeticCounter
from repro.counters.base import CounterEnvironment, CounterInfo, PerformanceCounter
from repro.counters.names import CounterName, CounterNameError, parse_counter_name
from repro.counters.types import CounterType

# (instance_name, instance_index) pairs a counter type supports.
InstanceLister = Callable[[CounterEnvironment], list[tuple[str, int | None]]]
Factory = Callable[[CounterName, CounterInfo, CounterEnvironment], PerformanceCounter]


def default_instances(env: CounterEnvironment) -> list[tuple[str, int | None]]:
    """total + one instance per worker thread (the HPX convention)."""
    instances: list[tuple[str, int | None]] = [("total", None)]
    if env.runtime is not None:
        instances.extend(("worker-thread", i) for i in range(env.runtime.num_workers))
    return instances


@dataclass(frozen=True)
class CounterTypeEntry:
    """One registered counter type."""

    info: CounterInfo
    factory: Factory
    instances: InstanceLister = default_instances


class CounterRegistry:
    """All counter types known to one application run."""

    def __init__(self, env: CounterEnvironment) -> None:
        self.env = env
        env.registry = self
        self._types: dict[str, CounterTypeEntry] = {}
        # Counter type name -> identity of the provider that installed it.
        self._provenance: dict[str, str] = {}

    # -- installation ------------------------------------------------------

    def install(self, provider: "Any") -> list[str]:
        """Install every counter type a :class:`CounterProvider` declares.

        This is the only way a counter type enters a registry.

        Type names are validated against the ``/object/counter`` grammar
        and checked for conflicts across providers; violations raise
        :class:`~repro.counters.providers.ProviderError` with an
        actionable message.  Returns the installed type names.
        """
        from repro.counters.providers import (
            ProviderError,
            validate_provider_name,
            validate_type_name,
        )

        pname = validate_provider_name(getattr(provider, "name", None))
        installed: list[str] = []
        for entry in provider.counter_types(self.env):
            type_name = validate_type_name(pname, entry.info.type_name)
            if type_name in self._types:
                raise ProviderError(
                    f"provider {pname!r} declares counter type {type_name!r} already "
                    f"registered by {self._provenance[type_name]!r}; counter type names "
                    f"must be unique across providers — pick a distinct /object or counter name"
                )
            self._types[type_name] = entry
            self._provenance[type_name] = pname
            installed.append(type_name)
        return installed

    def provider_of(self, type_name: str) -> str:
        """Provider identity that installed *type_name* ("" if unknown)."""
        return self._provenance.get(type_name, "")

    def providers(self) -> list[str]:
        """Distinct provider identities present in this registry."""
        return list(dict.fromkeys(self._provenance.values()))

    # -- listing / discovery --------------------------------------------------

    def counter_types(self, pattern: str | None = None) -> list[CounterTypeEntry]:
        """Registered types, optionally filtered by a glob on the type name."""
        entries = sorted(self._types.values(), key=lambda e: e.info.type_name)
        if pattern is None:
            return entries
        return [e for e in entries if fnmatch.fnmatch(e.info.type_name, pattern)]

    def discover_counters(self, spec: str) -> list[str]:
        """Expand *spec* (possibly with wildcard instances) to concrete
        counter names."""
        name = parse_counter_name(spec)
        if name.object_name in ("arithmetics", "statistics"):
            return [spec]
        entry = self._lookup(name)
        if not name.has_wildcard:
            return [str(name)]
        result = []
        for inst_name, inst_index in entry.instances(self.env):
            if name.instance_is_wildcard and inst_name != name.instance_name:
                continue
            if name.instance_is_wildcard and inst_index is None:
                continue
            if not name.instance_is_wildcard and inst_name != name.instance_name:
                continue
            result.append(str(name.with_instance(inst_name, inst_index)))
        if not result:
            raise CounterNameError(f"no instances match {spec!r}")
        return result

    # -- creation ----------------------------------------------------------------

    def create_counter(self, spec: str | CounterName) -> PerformanceCounter:
        """Instantiate one concrete counter (no wildcards allowed)."""
        name = parse_counter_name(spec) if isinstance(spec, str) else spec
        if name.has_wildcard:
            raise CounterNameError(
                f"cannot create wildcard counter {spec}; use discover_counters first"
            )
        if name.object_name == "arithmetics":
            return self._create_arithmetic(name)
        if name.object_name == "statistics":
            return self._create_statistics(name)
        entry = self._lookup(name)
        return entry.factory(name, entry.info, self.env)

    def create_counters(self, specs: Iterable[str]) -> list[PerformanceCounter]:
        """Discover and create every counter matching *specs*."""
        counters = []
        for spec in specs:
            for concrete in self.discover_counters(spec):
                counters.append(self.create_counter(concrete))
        return counters

    # -- internals ---------------------------------------------------------------

    def _lookup(self, name: CounterName) -> CounterTypeEntry:
        try:
            return self._types[name.type_name]
        except KeyError:
            known = ", ".join(sorted(self._types))
            raise CounterNameError(
                f"unknown counter type {name.type_name!r}; known types: {known}"
            ) from None

    def _create_arithmetic(self, name: CounterName) -> ArithmeticCounter:
        if not name.parameters:
            raise CounterNameError(
                f"arithmetic counter needs @counter1,counter2,... parameters: {name}"
            )
        factor = 1.0
        specs = []
        for element in name.parameters.split(","):
            element = element.strip()
            if element.startswith("factor="):
                factor = float(element[len("factor=") :])
            elif element:
                specs.append(element)
        underlying = self.create_counters(specs)
        info = CounterInfo(
            type_name=f"/arithmetics/{name.counter_name}",
            counter_type=CounterType.ARITHMETIC,
            help_text=f"{name.counter_name} of {len(underlying)} underlying counters",
        )
        return ArithmeticCounter(name, info, self.env, underlying, name.counter_name, factor)

    def _create_statistics(self, name: CounterName) -> StatisticsCounter:
        if not name.embedded_instance:
            raise CounterNameError(f"statistics counter needs an embedded counter instance: {name}")
        underlying = self.create_counter(name.embedded_instance)
        window = DEFAULT_WINDOW
        if name.parameters:
            window = int(name.parameters)
        info = CounterInfo(
            type_name=f"/statistics/{name.counter_name}",
            counter_type=CounterType.AGGREGATING,
            help_text=f"{name.counter_name} over samples of {name.embedded_instance}",
        )
        return StatisticsCounter(name, info, self.env, underlying, name.counter_name, window)
