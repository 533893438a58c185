"""Pluggable counter providers: the open half of the counter registry.

The paper's premise is a *uniform* counter namespace — "any code
consuming counter data can be utilized to access arbitrary system
information with minimal effort".  Every counter type enters a
registry the same way, through :meth:`CounterRegistry.install
<repro.counters.registry.CounterRegistry.install>` of a provider:

- a :class:`CounterProvider` declares counter types (and their
  instances) against a :class:`~repro.counters.base.CounterEnvironment`;
  every declared type name is validated against the
  ``/object{instance}/counter`` grammar before it enters a registry;
- the built-in families (threads, runtime, taskbench, papi, profiler)
  are providers themselves: each family module returns its
  :class:`~repro.counters.registry.CounterTypeEntry` list from one
  ``*_counter_types(env)`` function;
- :func:`build_registry` resolves the full provider chain for one run:
  built-ins → the workload's own ``WorkloadEntry.counter_providers`` →
  third-party providers discovered through the
  ``repro.counter_providers`` entry-point group;
- :class:`AppCounter` / :class:`AppCounterSet` are the app-facing
  helper layer (the Octo-Tiger pattern: applications register
  per-kernel-variant counters into the runtime's counter framework and
  read them back through the same grammar as runtime counters).

Provider identity (:func:`provider_identity`) feeds campaign cache
keys, so installing or removing a counter plugin invalidates exactly
the cells whose counter surface it could have changed.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol, Sequence, runtime_checkable

from repro.counters.base import CounterEnvironment, CounterInfo, MonotonicCounter
from repro.counters.names import CounterNameError, parse_counter_name
from repro.counters.papi_counters import papi_counter_types
from repro.counters.runtime_counters import runtime_counter_types
from repro.counters.taskbench_counters import taskbench_counter_types
from repro.counters.threads_counters import threads_counter_types
from repro.counters.types import CounterType
from repro.profiler.counters import profiler_counter_types

if TYPE_CHECKING:  # imported lazily at runtime (registry imports this module)
    from repro.counters.base import PerformanceCounter
    from repro.counters.names import CounterName
    from repro.counters.registry import CounterRegistry, CounterTypeEntry

__all__ = [
    "ENTRY_POINT_GROUP",
    "AppCounter",
    "AppCounterSet",
    "CounterProvider",
    "ProviderError",
    "build_registry",
    "builtin_providers",
    "entry_point_providers",
    "provider_identity",
    "workload_counter_providers",
]

#: ``importlib.metadata`` entry-point group scanned for third-party providers.
ENTRY_POINT_GROUP = "repro.counter_providers"

#: Provider identities: dotted/kebab identifiers, lowercase-first.
_PROVIDER_NAME_RE = re.compile(r"^[a-z][a-z0-9_.\-]*$")


class ProviderError(ValueError):
    """A counter provider is malformed or conflicts with another.

    The message is actionable: it names the offending provider, the
    counter type, and — for conflicts — the provider already holding
    the name.
    """


@runtime_checkable
class CounterProvider(Protocol):
    """Anything that can contribute counter types to a registry.

    ``name`` is the provider's stable identity (it feeds cache keys and
    the CLI provenance column); ``counter_types(env)`` declares the
    :class:`~repro.counters.registry.CounterTypeEntry` list for one
    run's environment.  Declared type names must follow the
    ``/object/counter`` half of the name grammar — instances and
    parameters are added at discovery time.
    """

    name: str

    def counter_types(self, env: CounterEnvironment) -> Iterable["CounterTypeEntry"]:
        """Declare this provider's counter types for *env*."""
        ...  # pragma: no cover - protocol


def validate_provider_name(name: Any) -> str:
    """Check a provider identity against the naming rule; return it."""
    if not isinstance(name, str) or not _PROVIDER_NAME_RE.match(name):
        raise ProviderError(
            f"invalid provider name {name!r}: provider names are lowercase "
            f"dotted/kebab identifiers (e.g. 'builtin.threads', 'fmm')"
        )
    return name


def validate_type_name(provider: str, type_name: Any) -> str:
    """Validate one declared counter *type* name (``/object/counter``).

    Instances (``{...}``), wildcards and parameters (``@...``) belong
    to counter *instance* names and are rejected here with an
    actionable message.
    """
    if not isinstance(type_name, str):
        raise ProviderError(
            f"provider {provider!r} declares a non-string counter type name: {type_name!r}"
        )
    for char, what in (("{", "an instance part"), ("@", "parameters"), ("*", "a wildcard")):
        if char in type_name:
            raise ProviderError(
                f"provider {provider!r} declares counter type {type_name!r} with {what}; "
                f"declare the bare /object/counter type name — instances and parameters "
                f"are resolved at discovery time"
            )
    try:
        parsed = parse_counter_name(type_name)
    except CounterNameError as exc:
        raise ProviderError(
            f"provider {provider!r} declares malformed counter type {type_name!r}: {exc} "
            f"(expected /object/counter, e.g. '/fmm/p2p-subgrids')"
        ) from None
    if parsed.type_name != type_name:
        raise ProviderError(
            f"provider {provider!r} declares counter type {type_name!r} which does not "
            f"round-trip through the grammar (canonical: {parsed.type_name!r})"
        )
    return type_name


# ---------------------------------------------------------------------------
# Built-in families as providers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BuiltinProvider:
    """One built-in counter family: its identity and its entry list."""

    name: str
    types_fn: Callable[[CounterEnvironment], list["CounterTypeEntry"]]
    #: Environment attribute the family needs (``None``: always available).
    requires: str | None = None

    def available(self, env: CounterEnvironment) -> bool:
        """Whether *env* carries the component this family observes."""
        return self.requires is None or getattr(env, self.requires) is not None

    def counter_types(self, env: CounterEnvironment) -> list["CounterTypeEntry"]:
        """The family's counter types for *env*."""
        return self.types_fn(env)


#: The built-in provider chain, in registration order (threads →
#: runtime → taskbench → papi, then the profiler family added later).
_BUILTINS: tuple[_BuiltinProvider, ...] = (
    _BuiltinProvider("builtin.threads", threads_counter_types, requires="runtime"),
    _BuiltinProvider("builtin.runtime", runtime_counter_types, requires="runtime"),
    _BuiltinProvider("builtin.taskbench", taskbench_counter_types, requires="runtime"),
    _BuiltinProvider("builtin.papi", papi_counter_types, requires="papi"),
    # Only present when a ProfileBuilder is attached to the run
    # (Session.run(profile=...)); gated like papi on its env component.
    _BuiltinProvider("builtin.profiler", profiler_counter_types, requires="profiler"),
)


def builtin_providers() -> tuple[CounterProvider, ...]:
    """The built-in counter families, as providers (static order)."""
    return _BUILTINS


# ---------------------------------------------------------------------------
# Workload and entry-point resolution
# ---------------------------------------------------------------------------


def workload_counter_providers(workload: str | None) -> tuple[CounterProvider, ...]:
    """Providers the named workload registered on its ``WorkloadEntry``."""
    if workload is None:
        return ()
    from repro.workloads.registry import get_workload

    return tuple(get_workload(workload).counter_providers)


def _coerce_provider(origin: str, obj: Any) -> CounterProvider:
    """Accept a provider instance or a zero-arg factory/class for one."""
    if not hasattr(obj, "counter_types") and callable(obj):
        obj = obj()
    if not hasattr(obj, "counter_types") or not getattr(obj, "name", None):
        raise ProviderError(
            f"{origin} does not provide a CounterProvider: expected an object "
            f"with a 'name' and a 'counter_types(env)' method (or a zero-argument "
            f"factory returning one), got {type(obj).__name__}"
        )
    return obj


def entry_point_providers() -> tuple[CounterProvider, ...]:
    """Third-party providers from the ``repro.counter_providers`` group.

    Each entry point may resolve to a provider instance (e.g. a
    module-level :class:`AppCounterSet`) or to a zero-argument factory
    for one.  A broken plugin raises :class:`ProviderError` naming the
    distribution so the failure is attributable.
    """
    from importlib import metadata

    providers: list[CounterProvider] = []
    for ep in sorted(metadata.entry_points(group=ENTRY_POINT_GROUP), key=lambda e: e.name):
        origin = f"entry point {ep.name!r} ({ep.value})"
        try:
            loaded = ep.load()
        except Exception as exc:  # import errors are the plugin's fault, say so
            raise ProviderError(f"{origin} failed to load: {exc}") from exc
        providers.append(_coerce_provider(origin, loaded))
    return tuple(providers)


def _entry_point_identity() -> list[str]:
    """Entry-point identities without importing the plugins."""
    from importlib import metadata

    return sorted(f"{ep.name}={ep.value}" for ep in metadata.entry_points(group=ENTRY_POINT_GROUP))


def provider_identity(workload: str | None = None) -> tuple[str, ...]:
    """Stable identity of the provider chain a run would resolve.

    Folded into campaign cache keys: the built-in provider names, the
    workload's own provider names, and the installed entry points (name
    and target, *without* importing them — key computation must not run
    plugin code).  Changing any of these can change a run's counter
    surface, so it must change the key.
    """
    names = [p.name for p in _BUILTINS]
    names.extend(p.name for p in workload_counter_providers(workload))
    names.extend(_entry_point_identity())
    return tuple(names)


def build_registry(
    env: CounterEnvironment,
    *,
    workload: str | None = None,
    providers: Sequence[CounterProvider] = (),
    entry_points: bool = True,
) -> "CounterRegistry":
    """Build one run's registry by resolving the provider chain.

    Installation order — built-ins (each gated on the environment
    component it observes), then the workload's
    ``WorkloadEntry.counter_providers``, then ``importlib.metadata``
    entry points, then explicit *providers* — so built-in names can
    never be shadowed and conflicts blame the newcomer.
    """
    from repro.counters.registry import CounterRegistry

    registry = CounterRegistry(env)
    for builtin in _BUILTINS:
        if builtin.available(env):
            registry.install(builtin)
    for provider in workload_counter_providers(workload):
        registry.install(provider)
    if entry_points:
        for provider in entry_point_providers():
            registry.install(provider)
    for provider in providers:
        registry.install(provider)
    return registry


# ---------------------------------------------------------------------------
# App-facing helper layer (the Octo-Tiger pattern)
# ---------------------------------------------------------------------------


class AppCounter:
    """One application-owned cumulative counter.

    The app-side half of the Octo-Tiger pattern: the application
    increments (atomic-style, safe under threads), the counter
    framework reads through the same ``/object{instance}/counter``
    grammar as runtime counters.  Framework reads are reset-on-read
    per registry instance — ``get_counter_value(reset=True)``
    re-baselines without disturbing the app's running total —
    while :meth:`exchange` offers the exemplar's destructive
    fetch-and-zero for apps that manage windows themselves.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def add(self, amount: int = 1) -> int:
        """Atomically add *amount*; returns the new running total."""
        with self._lock:
            self._value += amount
            return self._value

    def increment(self) -> int:
        """``add(1)`` — the common per-kernel-launch call."""
        return self.add(1)

    def read(self) -> int:
        """Current running total (non-destructive)."""
        with self._lock:
            return self._value

    def exchange(self, value: int = 0) -> int:
        """Atomically swap in *value* (default 0: reset-on-read)."""
        with self._lock:
            previous = self._value
            self._value = value
            return previous


@dataclass(frozen=True, eq=False)
class _AppCounterDecl:
    """One declared app counter: its instance coordinates and metadata."""

    counter_name: str
    instance_name: str
    instance_index: int | None
    parameters: str | None
    info_kwargs: dict[str, Any]
    counter: AppCounter


class AppCounterSet:
    """Declare app counters under one ``/object`` namespace.

    An ``AppCounterSet`` is both the application's handle store —
    :meth:`counter` returns the :class:`AppCounter` the app increments —
    and a :class:`CounterProvider`: installed into a registry it exposes
    every declared counter through the standard grammar, including
    ``#*`` wildcard discovery over the declared instances and
    ``@parameter`` variants sharing one counter type (the Octo-Tiger
    per-kernel-variant shape)::

        counters = AppCounterSet("fmm", provider="fmm")
        launched = counters.counter("p2p-subgrids", parameters="vectorized")
        ...
        launched.increment()   # from the app's kernel launch path

    Declarations are validated eagerly against the name grammar, so a
    typo fails at module import, not mid-run.
    """

    def __init__(self, object_name: str, *, provider: str | None = None) -> None:
        self.name = validate_provider_name(provider if provider is not None else object_name)
        self.object_name = object_name
        self._decls: dict[tuple[str, str, int | None, str | None], _AppCounterDecl] = {}
        # Validate the object name by round-tripping a probe type name.
        validate_type_name(self.name, f"/{object_name}/probe")

    def counter(
        self,
        counter_name: str,
        *,
        instance: tuple[str, int | None] = ("total", None),
        parameters: str | None = None,
        help_text: str = "",
        unit: str = "",
        instrument_ns_per_task: int = 0,
    ) -> AppCounter:
        """Declare one counter; returns the app-side increment handle.

        ``instance`` defaults to the conventional ``("total", None)``;
        ``parameters`` distinguishes variants sharing one counter type
        (``/fmm{...}/p2p-subgrids@vectorized``).
        """
        type_name = validate_type_name(self.name, f"/{self.object_name}/{counter_name}")
        inst_name, inst_index = instance
        suffix = "" if inst_index is None else f"#{inst_index}"
        params = "" if parameters is None else f"@{parameters}"
        full = f"/{self.object_name}{{locality#0/{inst_name}{suffix}}}/{counter_name}{params}"
        try:
            parsed = parse_counter_name(full)
        except CounterNameError as exc:
            raise ProviderError(
                f"provider {self.name!r}: counter declaration {full!r} is malformed: {exc}"
            ) from None
        if parsed.has_wildcard:
            raise ProviderError(
                f"provider {self.name!r}: counter declaration {full!r} contains a wildcard; "
                f"declare concrete instances — wildcards are for discovery"
            )
        key = (counter_name, inst_name, inst_index, parameters)
        if key in self._decls:
            raise ProviderError(
                f"provider {self.name!r} declares {full!r} twice; each "
                f"(counter, instance, parameters) combination registers once"
            )
        decl = _AppCounterDecl(
            counter_name=counter_name,
            instance_name=inst_name,
            instance_index=inst_index,
            parameters=parameters,
            info_kwargs={
                "help_text": help_text or f"Application counter {type_name}",
                "unit": unit,
                "instrument_ns_per_task": instrument_ns_per_task,
            },
            counter=AppCounter(),
        )
        self._decls[key] = decl
        return decl.counter

    # -- the CounterProvider half ------------------------------------------

    def counter_types(self, env: CounterEnvironment) -> list["CounterTypeEntry"]:
        """One :class:`CounterTypeEntry` per declared counter name."""
        from repro.counters.registry import CounterTypeEntry

        by_type: dict[str, list[_AppCounterDecl]] = {}
        for decl in self._decls.values():
            by_type.setdefault(decl.counter_name, []).append(decl)

        entries: list["CounterTypeEntry"] = []
        for counter_name, decls in by_type.items():
            entries.append(
                CounterTypeEntry(
                    info=CounterInfo(
                        type_name=f"/{self.object_name}/{counter_name}",
                        counter_type=CounterType.MONOTONICALLY_INCREASING,
                        **decls[0].info_kwargs,
                    ),
                    factory=self._make_factory(counter_name),
                    instances=self._make_instances(counter_name),
                )
            )
        return entries

    def _make_instances(
        self, counter_name: str
    ) -> Callable[[CounterEnvironment], list[tuple[str, int | None]]]:
        def instances(env: CounterEnvironment) -> list[tuple[str, int | None]]:
            """Declared instances of this app counter, in declaration order."""
            seen: list[tuple[str, int | None]] = []
            for decl in self._decls.values():
                if decl.counter_name != counter_name:
                    continue
                pair = (decl.instance_name, decl.instance_index)
                if pair not in seen:
                    seen.append(pair)
            return seen

        return instances

    def _make_factory(
        self, counter_name: str
    ) -> Callable[["CounterName", CounterInfo, CounterEnvironment], "PerformanceCounter"]:
        def factory(
            name: "CounterName", info: CounterInfo, env: CounterEnvironment
        ) -> "PerformanceCounter":
            """Bridge one declared app counter into the framework."""
            key = (counter_name, name.instance_name, name.instance_index, name.parameters)
            decl = self._decls.get(key)
            if decl is None:
                declared = ", ".join(
                    self._describe(d)
                    for d in self._decls.values()
                    if d.counter_name == counter_name
                )
                raise CounterNameError(
                    f"{name}: provider {self.name!r} declares no such instance/parameters "
                    f"combination; declared: {declared}"
                )
            return MonotonicCounter(name, info, env, decl.counter.read)

        return factory

    def _describe(self, decl: _AppCounterDecl) -> str:
        suffix = "" if decl.instance_index is None else f"#{decl.instance_index}"
        params = "" if decl.parameters is None else f"@{decl.parameters}"
        return f"{decl.instance_name}{suffix}{params}"
