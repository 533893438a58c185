"""The asyncio run server.

One process owns: an ``asyncio.start_server`` accept loop parsing HTTP
with :mod:`repro.serve.protocol`, a bounded :class:`RunQueue` guarded
by per-tenant :class:`TenantQuotas`, N worker tasks draining the queue
into a ``ProcessPoolExecutor`` that runs each request's
:class:`~repro.api.RunSpec` through :meth:`repro.api.Session.run`,
and a shared :class:`~repro.campaign.cache.ResultCache` consulted at
submit time and written at completion.  A request's key is the
equivalent campaign cell's, so the server's cache and campaign caches
interchange.

Endpoints::

    POST /runs                  submit; 202 queued / 200 cache hit /
                                429 + Retry-After on admission refusal
    GET  /runs/{id}[?wait=S]    status + result (optionally long-poll)
    GET  /runs/{id}/telemetry   the run's sample stream, chunked JSONL
    GET  /healthz               liveness
    GET  /stats                 self-introspection, counter-name grammar

The server watches itself with the paper's own idiom: ``/stats`` is a
``{counter-name: value}`` dict over the ``/serve{instance}/counter``
grammar (queue depth, cache hit rate, per-tenant admission counts).
"""

from __future__ import annotations

import asyncio
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Awaitable, Callable

from repro.api import RunSpec, Session
from repro.campaign.cache import ResultCache
from repro.serve import protocol
from repro.serve.protocol import HttpError, HttpRequest
from repro.serve.queue import BadRequest, QueueFull, RunQueue, RunRecord, RunRequest, RunState
from repro.serve.quotas import DEFAULT_TENANT, QuotaConfig, TenantQuotas
from repro.telemetry.frame import TelemetryFrame
from repro.telemetry.sinks import JsonLinesSink, replay_samples

#: An async callable executing one run and returning its result's
#: :meth:`~repro.api.RunResult.to_json` form.  The default runs it in a
#: process pool; tests inject inline runners.
Runner = Callable[[RunRequest], Awaitable[dict[str, Any]]]

#: Longest ``?wait=`` / telemetry long-poll the server will hold.
MAX_WAIT_SECONDS = 300.0


@dataclass(frozen=True)
class ServerConfig:
    """Everything ``repro serve`` needs to stand up a server."""

    host: str = "127.0.0.1"
    port: int = 8765  # 0 = ephemeral (the bound port is reported)
    workers: int = 2
    max_queue: int = 256
    quota: QuotaConfig = QuotaConfig()
    cache_dir: Path | None = None  # None + no_cache=False -> default dir
    no_cache: bool = False
    max_records: int = 10_000  # finished-run retention

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")

    def build_cache(self) -> ResultCache | None:
        if self.no_cache:
            return None
        if self.cache_dir is not None:
            return ResultCache(Path(self.cache_dir))
        return ResultCache.default()


def _execute(spec: RunSpec) -> dict[str, Any]:
    """Run *spec* to completion; the process-pool worker entry point."""
    return Session().run(spec).to_json()


class RunServer:
    """The service: accept loop + queue + worker pool + cache."""

    def __init__(
        self,
        config: ServerConfig | None = None,
        *,
        cache: ResultCache | None = None,
        runner: Runner | None = None,
        quotas: TenantQuotas | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServerConfig()
        self.cache = cache if cache is not None else self.config.build_cache()
        self.quotas = quotas or TenantQuotas(self.config.quota)
        self.queue = RunQueue(self.config.max_queue)
        self.records: dict[str, RunRecord] = {}
        self._clock = clock
        self._runner = runner
        self._pool: ProcessPoolExecutor | None = None
        self._server: asyncio.AbstractServer | None = None
        self._worker_tasks: list[asyncio.Task[None]] = []
        self._seq = 0
        self._busy = 0
        self._started_at = clock()
        # Admission/outcome counters (cache hit/miss live on the cache).
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected_queue = 0
        self.rejected_quota = 0
        # Exponential moving average of run duration, seeding the
        # Retry-After estimate before the first completion.
        self._ema_run_seconds = 0.05

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        assert self._server is not None and self._server.sockets, "server not started"
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> "RunServer":
        """Bind, spawn the worker tasks, and start accepting."""
        if self._runner is None:
            self._pool = ProcessPoolExecutor(max_workers=self.config.workers)
            self._runner = self._pool_runner
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._worker_tasks = [
            asyncio.ensure_future(self._worker_loop()) for _ in range(self.config.workers)
        ]
        self._started_at = self._clock()
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, cancel workers, shut the pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._worker_tasks:
            task.cancel()
        for task in self._worker_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._worker_tasks = []
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- execution -----------------------------------------------------

    async def _pool_runner(self, request: RunRequest) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        assert self._pool is not None
        return await loop.run_in_executor(self._pool, _execute, request.spec)

    async def _worker_loop(self) -> None:
        assert self._runner is not None
        while True:
            record = await self.queue.get()
            record.state = RunState.RUNNING
            record.started_at = self._clock()
            self._busy += 1
            try:
                result = await self._runner(record.request)
                record.result = result
                record.state = RunState.DONE
                self.completed += 1
                if self.cache is not None:
                    self.cache.store(record.key, result)
            except asyncio.CancelledError:
                record.state = RunState.FAILED
                record.error = "server shut down before the run finished"
                record.done.set()
                raise
            except Exception as exc:
                record.state = RunState.FAILED
                record.error = f"{type(exc).__name__}: {exc}"
                self.failed += 1
            finally:
                self._busy -= 1
                record.finished_at = self._clock()
                if record.started_at is not None and record.finished_at is not None:
                    duration = max(record.finished_at - record.started_at, 1e-6)
                    self._ema_run_seconds = 0.8 * self._ema_run_seconds + 0.2 * duration
                record.done.set()
                self.queue.task_done()

    def _retry_after_queue(self) -> float:
        """Seconds until the queue has likely drained one slot."""
        backlog = self.queue.depth + self._busy
        estimate = backlog * self._ema_run_seconds / max(self.config.workers, 1)
        return max(0.1, estimate)

    # -- record bookkeeping --------------------------------------------

    def _new_record(self, tenant: str, request: RunRequest, key: str) -> RunRecord:
        self._seq += 1
        record = RunRecord(
            id=f"r-{self._seq:08d}",
            tenant=tenant,
            request=request,
            key=key,
            submitted_at=self._clock(),
        )
        self.records[record.id] = record
        self._evict_finished()
        return record

    def _evict_finished(self) -> None:
        overflow = len(self.records) - self.config.max_records
        if overflow <= 0:
            return
        for run_id in [rid for rid, rec in self.records.items() if rec.finished][:overflow]:
            del self.records[run_id]

    # -- HTTP plumbing -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await protocol.read_request(reader)
                if request is None:
                    return
                await self._dispatch(request, writer)
            except HttpError as exc:
                writer.write(protocol.error_response(exc))
            except Exception as exc:  # never kill the accept loop
                writer.write(protocol.json_response(500, {"error": f"{type(exc).__name__}: {exc}"}))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request: HttpRequest, writer: asyncio.StreamWriter) -> None:
        parts = [p for p in request.path.split("/") if p]
        if request.method == "POST" and parts == ["runs"]:
            writer.write(self._submit(request))
        elif request.method == "GET" and len(parts) == 2 and parts[0] == "runs":
            writer.write(await self._status(request, parts[1]))
        elif (
            request.method == "GET"
            and len(parts) == 3
            and parts[0] == "runs"
            and parts[2] == "telemetry"
        ):
            await self._stream_telemetry(request, parts[1], writer)
        elif request.method == "GET" and parts == ["healthz"]:
            writer.write(
                protocol.json_response(
                    200, {"status": "ok", "uptime_seconds": self._clock() - self._started_at}
                )
            )
        elif request.method == "GET" and parts == ["stats"]:
            writer.write(protocol.json_response(200, self.stats()))
        elif parts and parts[0] in ("runs", "healthz", "stats"):
            raise HttpError(405, f"{request.method} not supported on /{'/'.join(parts)}")
        else:
            raise HttpError(404, f"no route for {request.path!r}")

    # -- endpoints -----------------------------------------------------

    def _submit(self, request: HttpRequest) -> bytes:
        tenant = request.headers.get("x-repro-tenant", DEFAULT_TENANT)
        retry_after = self.quotas.admit(tenant)
        if retry_after > 0.0:
            self.rejected_quota += 1
            raise HttpError(
                429,
                f"tenant {tenant!r} is over quota "
                f"({self.quotas.config.rate:g} runs/s, burst {self.quotas.config.burst:g})",
                headers={"Retry-After": str(math.ceil(retry_after))},
            )
        try:
            run_request = RunRequest.from_json(request.json())
            key = run_request.cache_key()
        except BadRequest as exc:
            raise HttpError(400, str(exc)) from exc

        cached = self.cache.load(key) if self.cache is not None else None
        record = self._new_record(tenant, run_request, key)
        self.submitted += 1
        if cached is not None:
            record.cached = True
            record.result = cached
            record.state = RunState.DONE
            record.started_at = record.finished_at = self._clock()
            record.done.set()
            return protocol.json_response(
                200, {"id": record.id, "state": record.state.value, "cached": True}
            )
        try:
            self.queue.submit(record)
        except QueueFull as exc:
            # The record never entered the queue: fail it so a later
            # status poll explains what happened, and refuse admission.
            del self.records[record.id]
            self.submitted -= 1
            self.rejected_queue += 1
            raise HttpError(
                429,
                str(exc),
                headers={"Retry-After": str(math.ceil(self._retry_after_queue()))},
            ) from exc
        return protocol.json_response(
            202,
            {
                "id": record.id,
                "state": record.state.value,
                "cached": False,
                "queue_depth": self.queue.depth,
            },
        )

    def _record_or_404(self, run_id: str) -> RunRecord:
        record = self.records.get(run_id)
        if record is None:
            raise HttpError(404, f"unknown run {run_id!r}")
        return record

    @staticmethod
    def _wait_seconds(request: HttpRequest) -> float:
        raw = request.query.get("wait")
        if raw is None:
            return 0.0
        try:
            seconds = float(raw)
        except ValueError as exc:
            raise HttpError(400, f"wait must be a number of seconds, got {raw!r}") from exc
        return min(max(seconds, 0.0), MAX_WAIT_SECONDS)

    async def _status(self, request: HttpRequest, run_id: str) -> bytes:
        record = self._record_or_404(run_id)
        wait = self._wait_seconds(request)
        if wait > 0.0 and not record.finished:
            try:
                await asyncio.wait_for(record.done.wait(), timeout=wait)
            except asyncio.TimeoutError:
                pass  # report the current (unfinished) state
        include_result = request.query.get("result", "1") not in ("0", "false", "no")
        return protocol.json_response(200, record.status_json(include_result=include_result))

    async def _stream_telemetry(
        self, request: HttpRequest, run_id: str, writer: asyncio.StreamWriter
    ) -> None:
        record = self._record_or_404(run_id)
        wait = self._wait_seconds(request) or 60.0
        if not record.finished:
            try:
                await asyncio.wait_for(record.done.wait(), timeout=wait)
            except asyncio.TimeoutError:
                raise HttpError(408, f"run {run_id} still {record.state.value} after {wait:g}s")
        if record.state is RunState.FAILED:
            raise HttpError(500, f"run {run_id} failed: {record.error}")
        assert record.result is not None
        frame = TelemetryFrame.from_rows(record.result.get("telemetry", []))
        writer.write(protocol.chunked_head(200, headers={"X-Repro-Run-Id": run_id}))
        sink = JsonLinesSink(_ChunkStream(writer))  # borrowed stream: not closed
        replay_samples(frame, sink)
        await writer.drain()
        writer.write(protocol.last_chunk())

    # -- introspection -------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """``/serve{instance}/counter`` self-observation snapshot."""
        from repro.counters.providers import provider_identity

        counters: dict[str, float] = {
            "/serve{locality#0/providers}/available": float(len(provider_identity())),
            "/serve{locality#0/queue}/depth": float(self.queue.depth),
            "/serve{locality#0/queue}/capacity": float(self.config.max_queue),
            "/serve{locality#0/workers}/total": float(self.config.workers),
            "/serve{locality#0/workers}/busy": float(self._busy),
            "/serve{locality#0/runs}/submitted": float(self.submitted),
            "/serve{locality#0/runs}/completed": float(self.completed),
            "/serve{locality#0/runs}/failed": float(self.failed),
            "/serve{locality#0/runs}/rejected-queue-full": float(self.rejected_queue),
            "/serve{locality#0/runs}/rejected-quota": float(self.rejected_quota),
            "/serve{locality#0/server}/uptime-seconds": self._clock() - self._started_at,
            "/serve{locality#0/server}/mean-run-seconds": self._ema_run_seconds,
        }
        if self.cache is not None:
            lookups = self.cache.hits + self.cache.misses
            counters["/serve{locality#0/cache}/hits"] = float(self.cache.hits)
            counters["/serve{locality#0/cache}/misses"] = float(self.cache.misses)
            counters["/serve{locality#0/cache}/stores"] = float(self.cache.stores)
            counters["/serve{locality#0/cache}/hit-rate"] = (
                self.cache.hits / lookups if lookups else 0.0
            )
        for tenant in self.quotas.tenants():
            stats = self.quotas.stats[tenant]
            counters[f"/serve{{locality#0/tenant#{tenant}}}/submitted"] = float(stats.submitted)
            counters[f"/serve{{locality#0/tenant#{tenant}}}/rejected"] = float(stats.rejected)
        return {"counters": counters}


class _ChunkStream:
    """File-like adapter: each ``write`` becomes one HTTP chunk.

    Lets the existing :class:`JsonLinesSink` stream straight onto the
    wire — the sink treats this as a borrowed, already-open stream.
    """

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer

    def write(self, text: str) -> None:
        self._writer.write(protocol.chunk(text.encode("utf-8")))

    def flush(self) -> None:
        """Chunks are flushed by the connection handler's drain."""


async def serve_forever(config: ServerConfig, *, ready: Callable[[RunServer], None] | None = None):
    """Start a server and serve until cancelled (the CLI entry point).

    *ready* is called with the started server (the CLI prints the bound
    address from it; tests use it to capture the port).  SIGTERM/SIGINT
    shut down gracefully — without this the process-pool workers would
    outlive the server as orphans.
    """
    import signal

    server = RunServer(config)
    await server.start()
    if ready is not None:
        ready(server)
    loop = asyncio.get_running_loop()
    interrupted = asyncio.Event()
    hooked: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, interrupted.set)
            hooked.append(sig)
        except (NotImplementedError, RuntimeError):  # non-main thread / platform
            pass
    try:
        accept = asyncio.ensure_future(server.serve_forever())
        stop = asyncio.ensure_future(interrupted.wait())
        await asyncio.wait([accept, stop], return_when=asyncio.FIRST_COMPLETED)
        for task in (accept, stop):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
    finally:
        for sig in hooked:
            loop.remove_signal_handler(sig)
        await server.stop()
