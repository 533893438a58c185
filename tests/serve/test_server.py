"""End-to-end RunServer tests over real sockets (in-process loop).

Runs use an inline runner (the request's RunSpec executed directly in
the event loop) on tiny inputs, so the suite exercises the full HTTP
surface — admission control, quotas, cache short-circuit, telemetry
streaming, stats — without paying process-pool startup per test.
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable

import pytest

from repro.api import Session
from repro.campaign.cache import ResultCache
from repro.campaign.engine import execute_cell
from repro.campaign.spec import CampaignSpec, cell_cache_key
from repro.serve.client import ServeClient, ServeError, http_request
from repro.serve.queue import RunRequest
from repro.serve.quotas import QuotaConfig, TenantQuotas
from repro.serve.server import RunServer, ServerConfig
from repro.telemetry.sinks import parse_jsonl_stream

FIB = {"benchmark": "fib", "params": {"n": 8}, "cores": 2}


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


async def inline_runner(request: RunRequest) -> dict[str, Any]:
    """What a pool worker runs, run inline (tiny inputs only)."""
    return Session().run(request.spec).to_json()


class GatedRunner:
    """A runner that holds every run until the test opens the gate."""

    def __init__(self) -> None:
        self.gate = asyncio.Event()
        self.calls = 0

    async def __call__(self, request: RunRequest) -> dict[str, Any]:
        self.calls += 1
        await self.gate.wait()
        return {"aborted": False, "verified": True, "exec_time_ns": 1, "telemetry": []}


def serve_test(
    test: Callable[[RunServer, ServeClient], Awaitable[None]],
    *,
    config: ServerConfig | None = None,
    **server_kwargs: Any,
) -> None:
    """Start a server on an ephemeral port, run *test*, tear down."""

    async def main() -> None:
        server = RunServer(config or ServerConfig(port=0, workers=1), **server_kwargs)
        await server.start()
        try:
            await test(server, ServeClient("127.0.0.1", server.port))
        finally:
            await server.stop()

    asyncio.run(main())


# -- the happy path ----------------------------------------------------------


def test_submit_status_result_healthz(tmp_path):
    async def scenario(server: RunServer, client: ServeClient) -> None:
        assert (await client.healthz())["status"] == "ok"
        accepted = await client.submit(**FIB)
        assert accepted["state"] in ("queued", "done")
        status = await client.result(accepted["id"])
        assert status["state"] == "done"
        assert status["cached"] is False
        assert status["request"]["benchmark"] == "fib"
        result = status["result"]
        assert result["verified"] is True
        assert result["exec_time_ns"] > 0
        assert result["telemetry"], "counters should have been collected"

    serve_test(
        scenario,
        config=ServerConfig(port=0, workers=1, cache_dir=tmp_path),
        runner=inline_runner,
    )


def test_cache_hit_short_circuits_with_identical_payload(tmp_path):
    """A warm submit returns the cold run's payload bit-for-bit."""

    async def scenario(server: RunServer, client: ServeClient) -> None:
        cold = await client.submit(**FIB)
        cold_status = await client.result(cold["id"])
        warm = await client.submit(**FIB)
        assert warm["cached"] is True
        assert warm["state"] == "done"
        warm_status = await client.status(warm["id"])
        assert warm_status["cached"] is True
        assert warm_status["result"] == cold_status["result"]
        assert warm_status["key"] == cold_status["key"]
        # Warm telemetry stream replays the same samples.
        assert await client.telemetry(warm["id"]) == await client.telemetry(cold["id"])
        counters = (await client.stats())["counters"]
        assert counters["/serve{locality#0/cache}/hits"] == 1.0
        assert counters["/serve{locality#0/cache}/hit-rate"] == 0.5

    serve_test(
        scenario,
        config=ServerConfig(port=0, workers=1, cache_dir=tmp_path),
        runner=inline_runner,
    )


def test_server_cache_interchanges_with_campaign_cache(tmp_path):
    """A cell stored by the campaign path is a server cache hit."""
    spec = CampaignSpec(
        benchmarks=(FIB["benchmark"],),
        runtimes=("hpx",),
        core_counts=(FIB["cores"],),
        samples=1,
        params=FIB["params"],
    )
    cell = next(spec.cells())
    cache = ResultCache(tmp_path)
    cache.store(cell_cache_key(spec, cell), execute_cell(spec, cell))

    async def scenario(server: RunServer, client: ServeClient) -> None:
        warm = await client.submit(**FIB)
        assert warm["cached"] is True

    serve_test(
        scenario,
        config=ServerConfig(port=0, workers=1, cache_dir=tmp_path),
        runner=inline_runner,
    )


# -- admission control -------------------------------------------------------


def test_queue_full_429_then_drain_resumes():
    runner = GatedRunner()

    async def scenario(server: RunServer, client: ServeClient) -> None:
        first = await client.submit(**FIB)  # picked up by the lone worker
        # Give the worker task a chance to dequeue the first run.
        for _ in range(100):
            if runner.calls:
                break
            await asyncio.sleep(0.01)
        second = await client.submit(**FIB)  # sits in the queue (capacity 1)
        reply = await client.submit_raw(dict(FIB))  # refused
        assert reply.status == 429
        assert reply.retry_after is not None and reply.retry_after >= 1
        assert "queue full" in reply.json()["error"]
        counters = (await client.stats())["counters"]
        assert counters["/serve{locality#0/runs}/rejected-queue-full"] == 1.0

        runner.gate.set()  # drain
        assert (await client.result(first["id"]))["state"] == "done"
        assert (await client.result(second["id"]))["state"] == "done"
        third = await client.submit(**FIB)  # admissible again
        assert (await client.result(third["id"]))["state"] == "done"

    serve_test(
        scenario,
        config=ServerConfig(port=0, workers=1, max_queue=1, no_cache=True),
        runner=runner,
    )


def test_quota_exhaustion_and_refill():
    clock = FakeClock()
    quotas = TenantQuotas(QuotaConfig(rate=1.0, burst=2.0), clock=clock)

    async def scenario(server: RunServer, client: ServeClient) -> None:
        acme = ServeClient("127.0.0.1", server.port, tenant="acme")
        for _ in range(2):
            await acme.submit(**FIB)
        reply = await acme.submit_raw(dict(FIB))
        assert reply.status == 429
        assert "over quota" in reply.json()["error"]
        assert reply.retry_after is not None and reply.retry_after >= 1

        other = ServeClient("127.0.0.1", server.port, tenant="zen")
        await other.submit(**FIB)  # separate tenant, separate bucket

        clock.advance(1.0)  # one token refilled
        await acme.submit(**FIB)

        stats = (await client.stats())["counters"]
        assert stats["/serve{locality#0/tenant#acme}/submitted"] == 3.0
        assert stats["/serve{locality#0/tenant#acme}/rejected"] == 1.0
        assert stats["/serve{locality#0/tenant#zen}/submitted"] == 1.0
        assert stats["/serve{locality#0/runs}/rejected-quota"] == 1.0

    serve_test(
        scenario,
        config=ServerConfig(port=0, workers=2, no_cache=True),
        runner=inline_runner,
        quotas=quotas,
    )


# -- telemetry streaming -----------------------------------------------------


def test_telemetry_stream_is_the_runs_sample_stream(tmp_path):
    async def scenario(server: RunServer, client: ServeClient) -> None:
        accepted = await client.submit(**FIB)
        status = await client.result(accepted["id"])
        text = await client.telemetry(accepted["id"])
        frame = parse_jsonl_stream(text)
        assert frame.to_rows() == status["result"]["telemetry"]
        assert len(frame.names()) > 0

    serve_test(
        scenario,
        config=ServerConfig(port=0, workers=1, cache_dir=tmp_path),
        runner=inline_runner,
    )


def test_failed_run_reports_error_and_refuses_telemetry():
    async def broken_runner(request: RunRequest) -> dict[str, Any]:
        raise RuntimeError("the simulation caught fire")

    async def scenario(server: RunServer, client: ServeClient) -> None:
        accepted = await client.submit(**FIB)
        status = await client.result(accepted["id"])
        assert status["state"] == "failed"
        assert "caught fire" in status["error"]
        with pytest.raises(ServeError, match="caught fire"):
            await client.telemetry(accepted["id"])
        counters = (await client.stats())["counters"]
        assert counters["/serve{locality#0/runs}/failed"] == 1.0

    serve_test(
        scenario,
        config=ServerConfig(port=0, workers=1, no_cache=True),
        runner=broken_runner,
    )


# -- protocol edges ----------------------------------------------------------


def test_http_error_surface():
    async def scenario(server: RunServer, client: ServeClient) -> None:
        host, port = "127.0.0.1", server.port
        assert (await http_request(host, port, "GET", "/runs/r-404")).status == 404
        assert (await http_request(host, port, "GET", "/nowhere")).status == 404
        assert (await http_request(host, port, "DELETE", "/runs/r-1")).status == 405
        assert (await http_request(host, port, "POST", "/runs", body=b"{]")).status == 400
        bad = await http_request(host, port, "POST", "/runs", body=b'{"benchmark":"nope"}')
        assert bad.status == 400
        assert "unknown workload" in bad.json()["error"]
        assert "taskbench" in bad.json()["error"]
        queued = await client.submit(**FIB)
        bad_wait = await http_request(host, port, "GET", f"/runs/{queued['id']}?wait=soon")
        assert bad_wait.status == 400

    serve_test(
        scenario,
        config=ServerConfig(port=0, workers=1, no_cache=True),
        runner=inline_runner,
    )


def test_wait_long_poll_returns_finished_state():
    runner = GatedRunner()

    async def scenario(server: RunServer, client: ServeClient) -> None:
        accepted = await client.submit(**FIB)

        async def release_soon() -> None:
            await asyncio.sleep(0.05)
            runner.gate.set()

        release = asyncio.ensure_future(release_soon())
        status = await client.status(accepted["id"], wait=10.0)
        await release
        assert status["state"] == "done"

    serve_test(
        scenario,
        config=ServerConfig(port=0, workers=1, no_cache=True),
        runner=runner,
    )
