"""The run server: simulation-as-a-service over HTTP.

``repro serve`` turns the one-call :class:`repro.api.Session` facade
into long-lived, traffic-serving infrastructure: an asyncio HTTP
service multiplexing many concurrent clients over one shared,
content-addressed result cache.  The moving parts:

- :mod:`repro.serve.protocol` — a hand-rolled HTTP/1.1 layer over
  ``asyncio`` streams (no dependencies beyond the stdlib);
- :mod:`repro.serve.quotas` — per-tenant token-bucket admission;
- :mod:`repro.serve.queue` — the run request model, campaign-identical
  cache keys, and the bounded admission-controlled queue;
- :mod:`repro.serve.server` — the service itself: routes, the worker
  pool executing each request's :class:`~repro.api.RunSpec` through
  ``Session.run`` in a ``ProcessPoolExecutor``, chunked JSONL telemetry
  streaming, and ``/stats`` introspection in the paper's counter-name
  grammar;
- :mod:`repro.serve.client` — a minimal asyncio client used by the
  tests, the CI smoke, and ``repro bench-serve``.
"""

from repro.serve.client import HttpReply, ServeClient, http_request
from repro.serve.protocol import HttpError, HttpRequest
from repro.serve.queue import QueueFull, RunQueue, RunRecord, RunRequest, RunState
from repro.serve.quotas import QuotaConfig, TenantQuotas, TokenBucket
from repro.serve.server import RunServer, ServerConfig, serve_forever

__all__ = [
    "HttpError",
    "HttpReply",
    "HttpRequest",
    "QueueFull",
    "QuotaConfig",
    "RunQueue",
    "RunRecord",
    "RunRequest",
    "RunServer",
    "RunState",
    "ServeClient",
    "ServerConfig",
    "TenantQuotas",
    "TokenBucket",
    "http_request",
    "serve_forever",
]
