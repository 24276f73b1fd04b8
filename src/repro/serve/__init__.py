"""`repro serve` — a long-lived asyncio query service over a saved index.

The layer that turns the engine into a *system*: a saved index directory
(single-engine or sharded — :func:`repro.load` auto-detects) becomes an
HTTP service whose concurrent kNN/range requests are admission-controlled
and micro-batched into the engine's batched BLAS kernels:

* :class:`QueryService` (:mod:`repro.serve.service`) — admission bound
  (503 + ``Retry-After`` beyond ``max_queue``), the timer-free
  micro-batcher (up to ``max_batch``), its one engine thread, and the
  stats the ``/stats`` endpoint reports.
* :class:`ReproServer` (:mod:`repro.serve.http`) — the dependency-free
  asyncio HTTP/1.1 front: ``POST /knn``, ``POST /range``, ``POST /join``,
  ``POST /insert``, ``POST /remove``, ``GET /healthz``, ``GET /stats``.
  Writes ride the same micro-batch queue as queries (applied first
  within their batch) and persist via the generation's ``delta.log``.

Answers are bit-identical to direct engine calls — batching changes when
a request runs, never what it computes.  Start one from the command
line::

    repro serve my-sharded-index --mode lazy

or from Python/tests with an ephemeral port::

    server = ReproServer("my-index", port=0)
    await server.start()          # binds immediately; index loads in background
    await server.ready()

See ``docs/serving.md`` for the endpoint schemas, the batching/admission
knobs, and deployment notes.
"""

from repro.core.resilience import Deadline, DeadlineExceeded
from repro.serve.http import ReproServer, request_json, serve, wait_ready
from repro.serve.service import QueryService, ServiceOverloaded, ServiceStats

__all__ = [
    "ReproServer",
    "QueryService",
    "ServiceOverloaded",
    "ServiceStats",
    "serve",
    "request_json",
    "wait_ready",
    "Deadline",
    "DeadlineExceeded",
]
