"""Content-addressed persistent cache: verdicts and subspace snapshots.

Layout under the cache root::

    <root>/subspaces/<program_digest>.ckpt     RPROCKPT1 checkpoints
    <root>/verdicts/<request_key>.json         verdict documents

Subspace entries are ordinary engine snapshots: the cache only names
them (:meth:`ServiceCache.checkpoint_policy`), and that policy both
writes and reads them in the explorer, so their fail-closed story
(per-array SHA-256, program-digest match, atomic publish, a refused
file explored afresh and replaced) is the one pinned by
``tests/test_checkpoint`` and ``tests/test_faultinject``.

Verdict entries get the same treatment at JSON scale.  Each file is::

    {"schema": "repro.service-cache/2",
     "key": <request_key>,
     "payload_sha256": <sha256 of canonical payload JSON>,
     "payload": {...}}

and :meth:`ServiceCache.get_verdict` re-hashes the payload before
trusting it.  **Fail-closed means evict-and-rebuild, never serve**: any
defect — unreadable file, wrong schema, key mismatch, digest mismatch —
is counted, the entry is deleted, and the caller sees a miss, exactly
as if the entry had never been written.  A flipped byte can cost a
recompute; it can never flip a verdict.

Only *decided* verdicts are cached.  UNKNOWNs are a statement about the
budget that was available, not about the program, so caching them would
serve one caller's impatience to every later caller; errors likewise.
Writes are atomic (tmp + fsync + ``os.replace`` + dir fsync) with
fault points ``service.cache.write.payload`` / ``.rename`` mirroring
the checkpoint writer's, so the chaos suite can tear them mid-write and
assert nothing torn is ever served.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import TYPE_CHECKING

from repro import obs
from repro.util.durable import fsync_dir
from repro.util.faultinject import fault_point

if TYPE_CHECKING:
    from repro.core.program import Program
    from repro.semantics.sparse.checkpoint import CheckpointPolicy

__all__ = ["SCHEMA", "CacheCorrupt", "ServiceCache"]

SCHEMA = "repro.service-cache/2"


class CacheCorrupt(Exception):
    """Internal marker: a cache entry failed validation (evicted)."""


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )


class ServiceCache:
    """The service's on-disk memory; every read is verify-then-trust.

    Not thread-safe per entry by locking — atomic ``os.replace`` makes
    concurrent writers last-write-wins and concurrent readers see
    either a complete old entry or a complete new one, which is all a
    cache needs.  ``stats()`` counters are approximate under heavy
    concurrency (plain int adds), which is fine for telemetry.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)
        self.verdict_dir = os.path.join(self.root, "verdicts")
        self.subspace_dir = os.path.join(self.root, "subspaces")
        os.makedirs(self.verdict_dir, exist_ok=True)
        os.makedirs(self.subspace_dir, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writes = 0

    # -- verdict documents ----------------------------------------------

    def _verdict_path(self, key: str) -> str:
        if not key.isalnum():
            raise ValueError(f"malformed cache key {key!r}")
        return os.path.join(self.verdict_dir, f"{key}.json")

    def get_verdict(self, key: str) -> dict | None:
        """The cached payload for ``key``, or ``None`` (miss/evicted)."""
        path = self._verdict_path(key)
        try:
            with open(path, "rb") as f:
                doc = json.loads(f.read().decode("utf-8"))
            if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
                raise CacheCorrupt("wrong schema")
            if doc.get("key") != key:
                raise CacheCorrupt("key mismatch")
            payload = doc.get("payload")
            if not isinstance(payload, dict):
                raise CacheCorrupt("payload not an object")
            digest = hashlib.sha256(_canonical(payload)).hexdigest()
            if digest != doc.get("payload_sha256"):
                raise CacheCorrupt("payload digest mismatch")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, UnicodeDecodeError, CacheCorrupt):
            # ValueError covers json.JSONDecodeError.  Evict: a corrupt
            # entry must read as "never written", not as an answer.
            self._evict(path)
            self.misses += 1
            return None
        self.hits += 1
        rec = obs.get_recorder()
        if rec.enabled:
            rec.add("service.cache.verdict_hits")
        return payload

    def put_verdict(self, key: str, payload: dict) -> None:
        """Atomically publish a decided verdict payload under ``key``.

        Callers must only pass decided payloads (``status == "ok"``);
        storing an UNKNOWN or error is a programming error here, not a
        policy decision left to the call site.
        """
        if payload.get("status") != "ok" or payload.get("holds") is None:
            raise ValueError(
                "only decided verdicts are cacheable; got "
                f"status={payload.get('status')!r} holds={payload.get('holds')!r}"
            )
        path = self._verdict_path(key)
        doc = {
            "schema": SCHEMA,
            "key": key,
            "payload_sha256": hashlib.sha256(_canonical(payload)).hexdigest(),
            "payload": payload,
        }
        blob = json.dumps(doc, separators=(",", ":"), sort_keys=True).encode(
            "utf-8"
        )
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "wb") as f:
                f.write(blob)
                fault_point("service.cache.write.payload", path=path)
                f.flush()
                os.fsync(f.fileno())
            fault_point("service.cache.write.rename", path=path)
            os.replace(tmp, path)
            fsync_dir(self.verdict_dir)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1
        rec = obs.get_recorder()
        if rec.enabled:
            rec.add("service.cache.verdict_writes")

    # -- subspace snapshots ---------------------------------------------

    def checkpoint_policy(self, program: Program) -> CheckpointPolicy:
        """The policy that writes ``program``'s snapshot into this cache
        and reads it back, under its digest-addressed path."""
        from repro.semantics.sparse.checkpoint import CheckpointPolicy, cache_path_for

        return CheckpointPolicy(path=cache_path_for(self.subspace_dir, program))

    # -- shared ----------------------------------------------------------

    def _evict(self, path: str) -> None:
        self.evictions += 1
        rec = obs.get_recorder()
        if rec.enabled:
            rec.add("service.cache.evictions")
        try:
            os.unlink(path)
        except OSError:
            pass

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writes": self.writes,
        }
