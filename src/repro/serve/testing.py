"""Spawn a real ``repro serve`` process and talk to it.

Shared by the serve test-suite's subprocess test, the CI ``serve-smoke``
job, and ``repro bench-serve`` — anything that wants the
genuine article (own process, own pool) rather than an in-loop
:class:`~repro.serve.server.RunServer`.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import Any, Iterator

_BANNER = re.compile(r"serving on ([\d.]+):(\d+)")


@dataclass
class SpawnedServer:
    """Handle on a live ``repro serve`` subprocess."""

    host: str
    port: int
    process: subprocess.Popen


def _read_banner(process: subprocess.Popen, timeout: float) -> tuple[str, int]:
    """Wait for the 'serving on HOST:PORT' announcement line."""
    assert process.stdout is not None
    fd = process.stdout.fileno()
    os.set_blocking(fd, False)
    deadline = time.monotonic() + timeout
    buffer = b""
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"repro serve exited with {process.returncode} before announcing: "
                f"{buffer.decode('utf-8', 'replace')!r}"
            )
        try:
            chunk = os.read(fd, 4096)
        except BlockingIOError:
            chunk = b""
        if chunk:
            buffer += chunk
            match = _BANNER.search(buffer.decode("utf-8", "replace"))
            if match:
                return match.group(1), int(match.group(2))
        else:
            time.sleep(0.02)
    raise TimeoutError(f"repro serve did not announce within {timeout:g}s: {buffer!r}")


@contextmanager
def spawn_server(
    *,
    workers: int = 2,
    max_queue: int = 256,
    cache_dir: str | os.PathLike[str] | None = None,
    no_cache: bool = False,
    quota_rate: float | None = None,
    quota_burst: float | None = None,
    timeout: float = 60.0,
    env: dict[str, str] | None = None,
) -> Iterator[SpawnedServer]:
    """Start ``repro serve --port 0`` and yield its address.

    The server's stderr passes through (visible in test/CI logs); the
    process is terminated on exit from the ``with`` block.
    """
    cmd: list[Any] = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--port",
        "0",
        "--workers",
        str(workers),
        "--max-queue",
        str(max_queue),
    ]
    if cache_dir is not None:
        cmd += ["--cache-dir", os.fspath(cache_dir)]
    if no_cache:
        cmd.append("--no-cache")
    if quota_rate is not None:
        cmd += ["--quota-rate", str(quota_rate)]
    if quota_burst is not None:
        cmd += ["--quota-burst", str(quota_burst)]
    full_env = dict(os.environ)
    # Make the spawned interpreter see the same source tree whether or
    # not the package is pip-installed.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))))
    full_env["PYTHONPATH"] = src + os.pathsep + full_env.get("PYTHONPATH", "")
    full_env.update(env or {})
    # Own session: the server and its process-pool workers form one
    # process group we can reap wholesale on exit.
    process = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=full_env, start_new_session=True)
    try:
        host, port = _read_banner(process, timeout)
        yield SpawnedServer(host=host, port=port, process=process)
    finally:
        process.terminate()  # the server shuts its pool down on SIGTERM
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        if hasattr(os, "killpg"):
            # Backstop: nothing from the group may outlive the context —
            # a straggler would hold inherited pipes (and CI jobs) open.
            with suppress(ProcessLookupError, PermissionError):
                os.killpg(process.pid, signal.SIGKILL)
