"""Frozen workload specification: one workload plus parameter overrides.

A :class:`WorkloadSpec` is the single currency for "what to run"
throughout the stack.  It has a canonical string spelling —

    fib
    taskbench:shape=stencil_1d,width=64,steps=32

— that round-trips through :meth:`WorkloadSpec.parse`, sorts its
parameters, and coerces values ``int`` → ``float`` → ``str`` with
:func:`parse_param` (the CLI's ``--param`` option uses the same rule),
so two spellings of the same workload always compare (and hash, and
cache) equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = ["WorkloadSpec", "as_workload_spec", "parse_param"]


def _coerce(value: str) -> Any:
    """``"8"`` -> 8, ``"0.5"`` -> 0.5, anything else stays a string."""
    try:
        return int(value)
    except ValueError:
        try:
            return float(value)
        except ValueError:
            return value


def parse_param(pair: str) -> tuple[str, Any]:
    """``"n=10"`` -> ``("n", 10)``: one ``key=value`` override, value coerced."""
    key, eq, value = pair.partition("=")
    if not eq or not key:
        raise ValueError(f"expected key=value, got {pair!r}")
    return key, _coerce(value)


def _format_value(value: Any) -> str:
    """Canonical text for one parameter value (must survive re-parsing)."""
    if isinstance(value, bool):
        raise ValueError(f"workload parameters cannot be booleans: {value!r}")
    if isinstance(value, (int, float)):
        text = repr(value)
    elif isinstance(value, str):
        text = value
    else:
        raise ValueError(f"workload parameter values must be int/float/str, got {value!r}")
    if any(sep in text for sep in (",", "=", ":")) or text != str(_coerce(text)):
        raise ValueError(f"parameter value {value!r} has no canonical spelling")
    return text


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload by name, plus parameter overrides.

    ``params`` holds only the *overrides* — defaults are resolved by
    :meth:`validate` against the registered workload, so a spec stays
    stable across default recalibrations (and so cache keys only see
    what the caller pinned).
    """

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"workload name must be a non-empty string, got {self.name!r}")
        if any(sep in self.name for sep in (",", "=", ":")):
            raise ValueError(f"workload name {self.name!r} contains reserved characters")
        object.__setattr__(self, "params", dict(self.params))

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "WorkloadSpec":
        """Parse the canonical spelling ``name[:key=val,...]``."""
        if not isinstance(text, str) or not text:
            raise ValueError(f"workload spec must be a non-empty string, got {text!r}")
        name, _, rest = text.partition(":")
        try:
            params = dict(parse_param(pair) for pair in rest.split(",")) if rest else {}
        except ValueError as exc:
            raise ValueError(f"workload spec {text!r}: {exc}") from None
        return cls(name=name, params=params)

    # -- canonical form ----------------------------------------------------

    def canonical(self) -> str:
        """The canonical string spelling (sorted parameters)."""
        if not self.params:
            return self.name
        pairs = ",".join(f"{k}={_format_value(self.params[k])}" for k in sorted(self.params))
        return f"{self.name}:{pairs}"

    def __str__(self) -> str:
        return self.canonical()

    def _key(self) -> tuple:
        # repr keeps 2 and 2.0 distinct (dict equality would not), so
        # the eq/hash contract matches the canonical spelling.
        return (self.name, tuple(sorted((k, repr(v)) for k, v in self.params.items())))

    def __hash__(self) -> int:
        return hash(self._key())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WorkloadSpec):
            return self._key() == other._key()
        return NotImplemented

    # -- resolution --------------------------------------------------------

    def validate(self, extra: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Resolve against the registered workload's defaults.

        Returns the fully-merged parameter dict (seed included); raises
        ``KeyError`` for an unknown workload and ``ValueError`` for
        unknown parameter names.  *extra* is overlaid on the spec's own
        params (the ``Session.run(params=...)`` escape hatch).
        """
        from repro.workloads.registry import get_workload

        merged = dict(self.params)
        if extra:
            merged.update(extra)
        return get_workload(self.name).benchmark.params_with_defaults(merged)

    def build(
        self, extra: Mapping[str, Any] | None = None
    ) -> tuple[Callable[..., Any], tuple, dict[str, Any]]:
        """Validate, then lower to ``(root_fn, args, resolved_params)``.

        ``root_fn(ctx, *args)`` is the application's main task on
        either runtime backend.
        """
        from repro.workloads.registry import get_workload

        resolved = self.validate(extra)
        root_fn, args = get_workload(self.name).benchmark.make_root(resolved)
        return root_fn, args, resolved

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict[str, Any]:
        """JSON form: ``{"name": ..., "params": {...}}``."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        """Inverse of :meth:`to_json_dict`."""
        return cls(name=data["name"], params=dict(data.get("params", {})))


def as_workload_spec(workload: WorkloadSpec) -> WorkloadSpec:
    """Assert *workload* is a :class:`WorkloadSpec` and return it.

    The legacy bare-name string form was removed after a deprecation
    cycle; callers parse strings explicitly with
    :meth:`WorkloadSpec.parse` now.
    """
    if isinstance(workload, WorkloadSpec):
        return workload
    raise TypeError(
        f"expected a WorkloadSpec, got {type(workload).__name__}; "
        "parse string spellings with WorkloadSpec.parse(...)"
    )
