"""Minimal asyncio HTTP client for the run server.

Connection-per-request (matching the server's ``Connection: close``
discipline), stdlib-only.  Used by the serve tests, the CI end-to-end
smoke, and the ``repro bench-serve`` load harness — hundreds of these
clients run concurrently inside one event loop.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.serve.protocol import decode_chunked


@dataclass
class HttpReply:
    """One parsed response."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)  # keys lower-cased
    body: bytes = b""

    def json(self) -> Any:
        return json.loads(self.body) if self.body else None

    @property
    def retry_after(self) -> float | None:
        value = self.headers.get("retry-after")
        return float(value) if value is not None else None


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    *,
    body: bytes | None = None,
    headers: Mapping[str, str] | None = None,
) -> HttpReply:
    """Issue one request; the response body is fully read (chunked
    transfer is reassembled) before returning."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        lines = [f"{method} {path} HTTP/1.1", f"Host: {host}:{port}", "Connection: close"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        if body is not None:
            lines.append(f"Content-Length: {len(body)}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (body or b""))
        await writer.drain()

        head = await reader.readuntil(b"\r\n\r\n")
        status_line, _, header_block = head.decode("latin-1").partition("\r\n")
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ValueError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        reply_headers: dict[str, str] = {}
        for line in header_block.strip().split("\r\n"):
            if not line:
                continue
            name, _, value = line.partition(":")
            reply_headers[name.strip().lower()] = value.strip()

        if "content-length" in reply_headers:
            payload = await reader.readexactly(int(reply_headers["content-length"]))
        else:
            payload = await reader.read()  # Connection: close delimits
        if reply_headers.get("transfer-encoding", "").lower() == "chunked":
            payload = decode_chunked(payload)
        return HttpReply(status=status, headers=reply_headers, body=payload)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, asyncio.CancelledError):
            pass


class ServeError(Exception):
    """A non-success response where success was required."""

    def __init__(self, reply: HttpReply, what: str):
        try:
            detail = reply.json().get("error", "")
        except Exception:
            detail = reply.body.decode("utf-8", "replace")
        super().__init__(f"{what}: HTTP {reply.status}: {detail}")
        self.reply = reply


class ServeClient:
    """Typed front door to one run server."""

    def __init__(self, host: str, port: int, *, tenant: str | None = None):
        self.host = host
        self.port = port
        self.tenant = tenant

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.tenant is not None:
            headers["X-Repro-Tenant"] = self.tenant
        return headers

    async def submit_raw(self, request: Mapping[str, Any]) -> HttpReply:
        """POST /runs without interpreting the status (429s included)."""
        body = json.dumps(dict(request)).encode()
        return await http_request(
            self.host, self.port, "POST", "/runs", body=body, headers=self._headers()
        )

    async def submit(self, benchmark: str, **fields: Any) -> dict[str, Any]:
        """Submit one run; returns the accepted-submission JSON.

        Raises :class:`ServeError` on any non-2xx (incl. 429) — load
        clients that want to back off use :meth:`submit_raw`.
        """
        reply = await self.submit_raw({"benchmark": benchmark, **fields})
        if reply.status not in (200, 202):
            raise ServeError(reply, f"submit {benchmark}")
        return reply.json()

    async def status(self, run_id: str, *, wait: float | None = None) -> dict[str, Any]:
        path = f"/runs/{run_id}"
        if wait is not None:
            path += f"?wait={wait:g}"
        reply = await http_request(self.host, self.port, "GET", path, headers=self._headers())
        if reply.status != 200:
            raise ServeError(reply, f"status {run_id}")
        return reply.json()

    async def result(self, run_id: str, *, timeout: float = 120.0) -> dict[str, Any]:
        """Long-poll until the run finishes; returns the final status."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise TimeoutError(f"run {run_id} did not finish within {timeout:g}s")
            status = await self.status(run_id, wait=min(remaining, 30.0))
            if status["state"] in ("done", "failed"):
                return status

    async def telemetry(self, run_id: str, *, wait: float = 60.0) -> str:
        """The run's full JSONL telemetry stream as text."""
        path = f"/runs/{run_id}/telemetry?wait={wait:g}"
        reply = await http_request(self.host, self.port, "GET", path, headers=self._headers())
        if reply.status != 200:
            raise ServeError(reply, f"telemetry {run_id}")
        return reply.body.decode("utf-8")

    async def healthz(self) -> dict[str, Any]:
        reply = await http_request(self.host, self.port, "GET", "/healthz")
        if reply.status != 200:
            raise ServeError(reply, "healthz")
        return reply.json()

    async def stats(self) -> dict[str, Any]:
        reply = await http_request(self.host, self.port, "GET", "/stats")
        if reply.status != 200:
            raise ServeError(reply, "stats")
        return reply.json()
