"""Run requests, run records, and the admission-controlled queue.

A :class:`RunRequest` is the JSON body of ``POST /runs`` in the exact
shape of one campaign cell: it lowers to the :class:`~repro.api.RunSpec`
that cell would run, parameters overlaid in the same order, which
validates the run and whose key is the cache key.  That makes the
server's shared :class:`~repro.campaign.cache.ResultCache`
interchangeable with campaign caches: a run executed by the server is
a cache hit for ``repro campaign`` and vice versa.

:class:`RunQueue` is a bounded FIFO whose overflow raises
:class:`QueueFull` — the server maps that onto ``429`` with a
``Retry-After`` estimated from recent run durations.
"""

from __future__ import annotations

import asyncio
import enum
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Any, Mapping

from repro.api import RunSpec
from repro.workloads import WorkloadSpec, available_workloads, overlay_params

#: Root seed applied when a request does not pin one (the paper default
#: used by campaigns, so unseeded server runs hit campaign cells).
DEFAULT_SEED = 20160523


class RunState(str, enum.Enum):
    """Lifecycle of one submitted run."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class BadRequest(ValueError):
    """Request body failed validation; the message is client-facing."""


@dataclass(frozen=True)
class RunRequest:
    """Validated form of a ``POST /runs`` body."""

    benchmark: str
    runtime: str = "hpx"
    cores: int = 1
    preset: str = "default"
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    platform: str | None = None  # preset name (files stay server-side)
    collect_counters: bool = True

    @classmethod
    def from_json(cls, obj: Any) -> "RunRequest":
        """Parse and validate a body; :class:`BadRequest` names the problem.

        This checks the wire format; the run itself is validated by
        lowering it to its :attr:`spec`, so a request that could only
        fail in a worker is refused here.
        """
        if not isinstance(obj, dict):
            raise BadRequest("request body must be a JSON object")
        unknown = set(obj) - {
            "benchmark",
            "workload",
            "runtime",
            "cores",
            "preset",
            "params",
            "seed",
            "platform",
            "collect_counters",
            "mode",
        }
        if unknown:
            raise BadRequest(f"unknown fields: {', '.join(sorted(unknown))}")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise BadRequest("params must be a JSON object")
        if obj.get("mode") is not None:
            # The top-level field is sugar for the ``mode`` workload param.
            params = {**params, "mode": obj["mode"]}
        benchmark, params = cls._resolve_workload(obj, params)
        platform = obj.get("platform")
        if platform is not None:
            from repro.platform.presets import platform_names

            # Preset names only: clients must not reach server-side
            # platform files through this field.
            if not isinstance(platform, str) or platform not in platform_names():
                known = ", ".join(platform_names())
                raise BadRequest(f"unknown platform {platform!r}; presets: {known}")
        collect = obj.get("collect_counters", True)
        if not isinstance(collect, bool):
            raise BadRequest("collect_counters must be a boolean")
        request = cls(
            benchmark=benchmark,
            runtime=obj.get("runtime", "hpx"),
            cores=obj.get("cores", 1),
            preset=obj.get("preset", "default"),
            params=params,
            seed=obj.get("seed", DEFAULT_SEED),
            platform=platform,
            collect_counters=collect,
        )
        request.spec  # lowers and validates the run
        return request

    @staticmethod
    def _resolve_workload(obj: Mapping[str, Any], params: dict) -> tuple[str, dict]:
        """Resolve ``workload``/``benchmark`` to ``(name, merged params)``.

        ``workload`` accepts the canonical string spelling
        (``"taskbench:shape=fft"``) or the JSON object form
        (``{"name": ..., "params": {...}}``); ``benchmark`` is the
        legacy bare-name field.  Either way the name is checked against
        the workload registry — the error lists every registered
        workload — and the request's ``params`` overlay the spec's
        embedded ones.
        """
        workload = obj.get("workload")
        benchmark = obj.get("benchmark")
        if workload is not None and benchmark is not None:
            raise BadRequest("pass either 'workload' or 'benchmark', not both")
        if workload is not None:
            try:
                if isinstance(workload, str):
                    spec = WorkloadSpec.parse(workload)
                elif isinstance(workload, dict):
                    if not set(workload) <= {"name", "params"}:
                        raise ValueError("workload object allows only 'name' and 'params'")
                    spec = WorkloadSpec.from_json_dict(workload)
                else:
                    raise ValueError("workload must be a string or an object")
            except (ValueError, KeyError, TypeError) as exc:
                raise BadRequest(f"bad workload: {exc}") from exc
            benchmark = spec.name
            params = {**spec.params, **params}
        if not isinstance(benchmark, str) or benchmark not in available_workloads():
            known = ", ".join(available_workloads())
            raise BadRequest(f"unknown workload {benchmark!r}; expected one of: {known}")
        return benchmark, dict(params)

    @cached_property
    def spec(self) -> RunSpec:
        """The validated :class:`~repro.api.RunSpec`, built once: the
        equivalent campaign cell's, parameters overlaid the same way."""
        try:
            spec = RunSpec(
                workload=self.benchmark,
                params=overlay_params(
                    WorkloadSpec(self.benchmark),
                    preset=self.preset,
                    params=self.params,
                    seed=self.seed,
                ),
                runtime=self.runtime,
                cores=self.cores,
                platform=self.platform,
                counters=None if self.collect_counters else (),
            )
            spec.validate()
        except KeyError as exc:  # an unknown preset name
            raise BadRequest(exc.args[0]) from None
        except (ValueError, TypeError) as exc:
            raise BadRequest(str(exc)) from exc
        return spec

    def cache_key(self) -> str:
        """Content-addressed key — identical to the campaign cell's."""
        return self.spec.key()

    def to_json_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class RunRecord:
    """Server-side state of one submitted run."""

    id: str
    tenant: str
    request: RunRequest
    key: str
    state: RunState = RunState.QUEUED
    cached: bool = False
    result: dict[str, Any] | None = None
    error: str | None = None
    submitted_at: float = 0.0  # server-clock seconds (time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    done: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def finished(self) -> bool:
        return self.state in (RunState.DONE, RunState.FAILED)

    def status_json(self, *, include_result: bool = True) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state.value,
            "cached": self.cached,
            "key": self.key,
            "request": self.request.to_json_dict(),
        }
        if self.error is not None:
            out["error"] = self.error
        if self.started_at is not None and self.finished_at is not None:
            out["run_seconds"] = self.finished_at - self.started_at
        if include_result and self.result is not None:
            out["result"] = self.result
        return out


class QueueFull(Exception):
    """Admission refused: the bounded queue is at capacity."""

    def __init__(self, depth: int, capacity: int):
        super().__init__(f"run queue full ({depth}/{capacity})")
        self.depth = depth
        self.capacity = capacity


class RunQueue:
    """Bounded FIFO of queued :class:`RunRecord`\\ s.

    Unlike ``asyncio.Queue(maxsize=...)``, ``submit`` never blocks —
    over-capacity submission is an *error* (admission control), not
    back-pressure, because the client is on the other side of an HTTP
    request that should fail fast with 429.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: asyncio.Queue[RunRecord] = asyncio.Queue()

    @property
    def depth(self) -> int:
        return self._queue.qsize()

    def submit(self, record: RunRecord) -> None:
        if self.depth >= self.capacity:
            raise QueueFull(self.depth, self.capacity)
        self._queue.put_nowait(record)

    async def get(self) -> RunRecord:
        return await self._queue.get()

    def task_done(self) -> None:
        self._queue.task_done()
