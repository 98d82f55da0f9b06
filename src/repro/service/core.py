"""The certification service façade: admit, coalesce, cache, dispatch.

:class:`CertificationService` is the HTTP-free heart of the server —
tests and benchmarks drive it directly; :mod:`repro.service.server`
merely maps it onto HTTP.  One request flows through five gates, each a
distinct way of *not* spending a worker:

1. **Validation** — malformed documents are refused
   (``code="bad-request"``) before anything else happens.
2. **Admission** — at most ``max_pending`` requests are in flight;
   beyond that the service **sheds** (``status="shed"``,
   ``code="overloaded"``, with a ``retry_after`` hint) instead of
   queueing unboundedly.  Load shedding is the robustness feature: a
   bounded queue keeps latency bounded, and an honest 429 beats a
   socket that times out after a minute of silence.
3. **Parse + identity** — the program and property are parsed in the
   *parent* (parse errors never burn a worker) and the program is
   hashed into its digest.  Each service remembers the digest of the
   last :data:`DIGEST_MEMO_SIZE` distinct request texts (program,
   program name, property), so a text it has already accepted is parsed
   once, not once per request.  The memo holds digests only: the
   request key is still computed per request, and a text that fails to
   parse or digest is never remembered.
4. **Cache** — a decided verdict under the request key is served
   immediately (``cached=true``); the fail-closed story lives in
   :mod:`repro.service.cache`.  A repeated request therefore costs the
   key plus one verified cache read.
5. **Coalescing** — concurrent requests for the *same key* collapse
   onto one worker dispatch; followers wait for the leader's answer.
   Without this, a cold cache plus a popular program turns into N
   identical explorations racing each other.

Only then does the request reach :class:`~repro.service.supervisor.
WorkerPool.submit`, whose crash/retry/quarantine/watchdog contract is
documented there.  Every path out of :meth:`submit` — including every
failure path — returns a structured response document; the service
never raises on a well-formed request.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.errors import DslSyntaxError, ReproError
from repro.service.cache import ServiceCache
from repro.service.protocol import normalize_request, request_key
from repro.service.supervisor import (
    CircuitBreaker,
    Quarantined,
    WorkerCrash,
    WorkerPool,
    WorkerTimeout,
)
from repro.util.faultinject import fault_point

__all__ = ["ServiceConfig", "CertificationService", "DIGEST_MEMO_SIZE"]

#: Distinct request texts whose program digest one service remembers;
#: the least recently used text is forgotten first.
DIGEST_MEMO_SIZE = 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance (all have serving defaults)."""

    workers: int = 2
    cache_dir: str | None = None
    max_pending: int = 8
    max_retries: int = 2
    default_timeout: float = 60.0
    stall_grace: float = 5.0
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    shed_retry_after: float = 1.0

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise ValueError(f"workers must be > 0, got {self.workers}")
        if self.max_pending < self.workers:
            raise ValueError(
                f"max_pending ({self.max_pending}) must be >= workers "
                f"({self.workers}) or the pool can never fill"
            )


class _Flight:
    """One in-flight computation; followers wait on ``done``."""

    __slots__ = ("done", "response")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.response: dict[str, Any] | None = None


class CertificationService:
    """Thread-safe service façade over a supervised worker pool."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.cache = (
            ServiceCache(self.config.cache_dir)
            if self.config.cache_dir
            else None
        )
        self.pool = WorkerPool(
            self.config.workers,
            cache_dir=self.config.cache_dir,
            max_retries=self.config.max_retries,
            default_timeout=self.config.default_timeout,
            stall_grace=self.config.stall_grace,
            breaker=CircuitBreaker(
                threshold=self.config.breaker_threshold,
                cooldown=self.config.breaker_cooldown,
            ),
        )
        self._admission = threading.BoundedSemaphore(self.config.max_pending)
        self._inflight: dict[str, _Flight] = {}
        self._inflight_lock = threading.Lock()
        self._digests: OrderedDict[tuple, str] = OrderedDict()
        self._digests_lock = threading.Lock()
        self.requests = 0
        self.shed = 0
        self.coalesced = 0
        self._count_lock = threading.Lock()

    # -- public API ------------------------------------------------------

    def submit(self, doc: dict[str, Any]) -> dict[str, Any]:
        """Decide one request document; always returns a response doc.

        The response's ``status`` is one of ``"ok"`` / ``"unknown"`` /
        ``"error"`` / ``"shed"`` (the degradation ladder, in order);
        errors carry ``error.code`` from
        :data:`repro.service.protocol.ERROR_CODES`.
        """
        with self._count_lock:
            self.requests += 1
        rec = obs.get_recorder()
        if rec.enabled:
            rec.add("service.requests")
        try:
            request = normalize_request(doc)
        except ValueError as exc:
            return _error("bad-request", str(exc))

        try:
            fault_point("service.queue.admit")
        except Exception:
            # An injected admission fault forces a shed regardless of
            # actual queue depth (see util/faultinject.py).
            admitted = False
        else:
            admitted = self._admission.acquire(blocking=False)
        if not admitted:
            with self._count_lock:
                self.shed += 1
            if rec.enabled:
                rec.add("service.shed")
            return {
                "status": "shed",
                "error": {
                    "code": "overloaded",
                    "message": (
                        f"{self.config.max_pending} requests already "
                        "pending; retry later"
                    ),
                },
                "retry_after": self.config.shed_retry_after,
            }
        try:
            with rec.span("service.request"):
                return self._admitted(request)
        finally:
            self._admission.release()

    def health(self) -> dict[str, Any]:
        """Liveness/telemetry snapshot for the health endpoint."""
        with self._count_lock:
            counts = {
                "requests": self.requests,
                "shed": self.shed,
                "coalesced": self.coalesced,
            }
        with self._inflight_lock:
            counts["inflight"] = len(self._inflight)
        return {
            "status": "ok",
            "counters": counts,
            "pool": self.pool.stats(),
            "breakers": self.pool.breaker.snapshot(),
            "cache": self.cache.stats() if self.cache else None,
        }

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "CertificationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals -------------------------------------------------------

    def _digest_of(self, request: dict[str, Any]) -> str:
        """The program digest of ``request``, parsed at most once per text.

        The memo key is the exact request text, property included: a hit
        means byte-identical input that already parsed, program and
        property both.  Exceptions propagate and nothing is stored.
        """
        from repro.semantics.sparse.checkpoint import program_digest
        from repro.service.worker import _parse_request_program

        text = (
            request["program"],
            request.get("program_name"),
            request["property"],
        )
        with self._digests_lock:
            digest = self._digests.get(text)
            if digest is not None:
                self._digests.move_to_end(text)
                return digest
        program, _prop = _parse_request_program(request)
        digest = program_digest(program)
        with self._digests_lock:
            self._digests[text] = digest
            if len(self._digests) > DIGEST_MEMO_SIZE:
                self._digests.popitem(last=False)
        return digest

    def _admitted(self, request: dict[str, Any]) -> dict[str, Any]:
        rec = obs.get_recorder()
        try:
            digest = self._digest_of(request)
        except (DslSyntaxError, ReproError) as exc:
            return _error("parse-error", f"{type(exc).__name__}: {exc}")
        except RecursionError as exc:
            # Parsed, but too deep for a recursive engine path; printing
            # is iterative, so the parser's nesting guard normally
            # refuses such text first.
            return _error("engine-error", f"{type(exc).__name__}: {exc}")
        key = request_key(digest, request)

        if self.cache is not None:
            payload = self.cache.get_verdict(key)
            if payload is not None:
                response = dict(payload)
                response.update(key=key, cached=True)
                return response

        # Single-flight: first caller for a key computes, the rest wait.
        with self._inflight_lock:
            flight = self._inflight.get(key)
            if flight is None:
                flight = _Flight()
                self._inflight[key] = flight
                leader = True
            else:
                leader = False
        if not leader:
            with self._count_lock:
                self.coalesced += 1
            if rec.enabled:
                rec.add("service.coalesced")
            flight.done.wait()
            response = dict(flight.response or _error("internal", "lost flight"))
            response["coalesced"] = True
            return response

        try:
            response = self._dispatch(request, digest=digest, key=key)
        except Exception as exc:
            # Truly unexpected supervisor-side failure: still a
            # structured answer (and the same one for any followers).
            response = _error("internal", f"{type(exc).__name__}: {exc}")
        finally:
            flight.response = response
            with self._inflight_lock:
                self._inflight.pop(key, None)
            flight.done.set()
        return response

    def _dispatch(
        self, request: dict[str, Any], *, digest: str, key: str
    ) -> dict[str, Any]:
        try:
            payload = self.pool.submit(request, digest=digest)
        except Quarantined as exc:
            return {
                "status": "error",
                "error": {"code": "quarantined", "message": str(exc)},
                "retry_after": exc.retry_after,
                "digest": digest,
                "key": key,
            }
        except WorkerTimeout as exc:
            return _error("worker-timeout", str(exc), digest=digest, key=key)
        except WorkerCrash as exc:
            return _error("worker-crash", str(exc), digest=digest, key=key)
        response = dict(payload)
        response.update(key=key, cached=False)
        if (
            self.cache is not None
            and response.get("status") == "ok"
            and response.get("holds") is not None
        ):
            try:
                self.cache.put_verdict(key, payload)
            except OSError:
                # Cache publish is best-effort; the verdict still goes out.
                pass
        return response


def _error(code: str, message: str, **extra: Any) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "status": "error",
        "error": {"code": code, "message": message},
    }
    doc.update(extra)
    return doc
