"""Certification-as-a-service: a long-lived, supervised checking server.

The CLI decides one property per invocation and exits; production
traffic is a stream of overlapping queries against a (mostly) stable
set of programs.  This package serves :func:`repro.api.verify` verdicts
and certificates continuously, with **robustness as the headline**: a
crashing, hanging, or OOM-killed check must never take the server down,
never hang a caller, and never — under any failure — turn into a wrong
verdict.

Layout (one module per degradation concern)
-------------------------------------------
- :mod:`repro.service.protocol` — the JSON request/response shapes, the
  length-prefixed pipe framing between supervisor and workers, and the
  content-addressed request keys (program digest × property × fairness).
- :mod:`repro.service.cache` — the persistent on-disk cache: verdict
  documents and :class:`~repro.semantics.sparse.explorer.
  ReachableSubspace` snapshots (``RPROCKPT1`` checkpoints), both
  **fail-closed** — a corrupt entry is detected by digest, evicted, and
  rebuilt; never served.
- :mod:`repro.service.worker` — the subprocess worker: parses a request,
  maps its deadline onto a :class:`~repro.semantics.budget.Budget`, runs
  ``verify()``, and answers over the pipe.  Workers are the crash
  isolation boundary: anything that kills one (segfault, OOM kill,
  injected ``os._exit``) is a structured error in the parent, not a
  server death.
- :mod:`repro.service.supervisor` — the supervised worker pool: death
  detection on use, respawn with exponential backoff, bounded
  retry-with-backoff for crashed requests, a per-program-digest circuit
  breaker quarantining programs that repeatedly kill workers, and a
  stall watchdog that reaps workers which outlive their deadline.
- :mod:`repro.service.core` — the service façade: admission control
  (bounded queue, load-shed with Retry-After), duplicate in-flight
  coalescing, the cache lookup/publish path, and per-request telemetry.
- :mod:`repro.service.server` — a stdlib ``ThreadingHTTPServer`` front
  (``POST /v1/verify``, ``GET /v1/health``) — ``python -m repro serve``.
- :mod:`repro.service.client` — a small ``urllib`` client that honors
  Retry-After, used by the benchmarks and the chaos driver.

The degradation ladder (every request terminates in one of these, in
order of preference — never a hang, never a wrong verdict):

1. decided verdict (cached or computed), with certificate if asked;
2. structured UNKNOWN ``PartialResult`` (deadline/budget ran out —
   resumable: the response carries the checkpoint path);
3. structured error (parse error, worker crash after retries, stall
   watchdog, quarantined digest) with a machine-readable code;
4. load shed (queue full) with ``Retry-After``.

See ``docs/service.md`` for the API, the cache format, and the chaos
coverage contract.
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "core": ("CertificationService", "ServiceConfig"),
        "cache": ("ServiceCache", "CacheCorrupt"),
        "client": ("ServiceClient",),
        "protocol": ("request_key",),
        "server": ("serve", "start_server"),
    },
)
