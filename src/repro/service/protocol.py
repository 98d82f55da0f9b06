"""Wire shapes for the certification service.

Two concerns live here because they must never drift apart:

1. **Framing** between the supervisor and its worker subprocesses:
   length-prefixed JSON over the worker's stdin/stdout pipes (8-byte
   little-endian length, then UTF-8 JSON).  Length-prefixing — rather
   than newline-delimited JSON — makes torn writes *detectable*: a
   worker killed mid-reply leaves a short read, which
   :func:`read_frame` reports as ``None`` (EOF) instead of handing the
   parent half a document.  An implausible length (corrupt prefix, or a
   worker writing garbage to stdout) raises :class:`FrameError` so the
   supervisor can reap the worker rather than wait forever on a
   20-exabyte "frame".

2. **Request identity**: :func:`request_key` is the content-addressed
   cache/coalescing key — the program digest (see
   :func:`repro.semantics.sparse.checkpoint.program_digest`) crossed
   with every request field that can change the *answer* (property
   text, fairness, prove).  Deadlines and budgets are deliberately
   **excluded**: they change how long we try, not what is true, so a
   verdict decided under any budget is servable to every later request
   for the same key.  (UNKNOWNs are never cached — see
   :mod:`repro.service.cache`.)

The request/response documents themselves are plain dicts (this is a
stdlib-only service; no schema library), validated by
:func:`normalize_request` at the service boundary so workers only ever
see well-formed shapes.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, BinaryIO

__all__ = [
    "FrameError",
    "MAX_FRAME",
    "read_frame",
    "write_frame",
    "normalize_request",
    "request_key",
    "ERROR_CODES",
]

_LEN_BYTES = 8

#: Upper bound on a single frame's JSON payload.  Responses carry
#: verdict documents and UNKNOWN statistics — kilobytes, not gigabytes —
#: so anything near this bound is corruption, not data.
MAX_FRAME = 64 * 1024 * 1024

#: The machine-readable error codes a response's ``error.code`` may
#: carry, with the HTTP status each maps to.  One registry so the
#: server, client, docs, and chaos assertions agree.
ERROR_CODES: dict[str, int] = {
    "parse-error": 400,      # program or property text did not parse
    "bad-request": 400,      # malformed request document
    "engine-error": 400,     # engine refusal (capacity, tier mismatch, ...)
    "overloaded": 429,       # admission control shed the request
    "quarantined": 503,      # circuit breaker open for this program
    "worker-crash": 502,     # worker died, retries exhausted
    "worker-timeout": 502,   # stall watchdog reaped the worker
    "internal": 500,         # unexpected supervisor-side failure
}


class FrameError(Exception):
    """A pipe frame was structurally implausible (corrupt length)."""


def write_frame(stream: BinaryIO, doc: dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame and flush."""
    blob = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    stream.write(len(blob).to_bytes(_LEN_BYTES, "little"))
    stream.write(blob)
    stream.flush()


def read_frame(stream: BinaryIO) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean or torn EOF.

    A partial frame (the peer died mid-write) is EOF, not an error —
    the caller already has to handle peer death, and a torn write
    carries no usable information.  A *complete* frame that is not a
    JSON object, or a length prefix beyond :data:`MAX_FRAME`, raises
    :class:`FrameError`: the stream is desynchronized and the only safe
    move is to drop the peer.
    """
    head = _read_exact(stream, _LEN_BYTES)
    if head is None:
        return None
    length = int.from_bytes(head, "little")
    if not 0 < length <= MAX_FRAME:
        raise FrameError(f"implausible frame length {length}")
    blob = _read_exact(stream, length)
    if blob is None:
        return None
    try:
        doc = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"corrupt frame: {exc}") from exc
    if not isinstance(doc, dict):
        raise FrameError(f"frame is not an object: {type(doc).__name__}")
    return doc


def _read_exact(stream: BinaryIO, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = stream.read(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def normalize_request(doc: dict[str, Any]) -> dict[str, Any]:
    """Validate and canonicalize a request document.

    Raises ``ValueError`` with a human message on any malformed field;
    the service maps that to a ``bad-request`` response without
    involving a worker.  Returns a fresh dict containing exactly the
    recognized fields, defaults filled in.
    """
    if not isinstance(doc, dict):
        raise ValueError("request must be a JSON object")
    program = doc.get("program")
    if not isinstance(program, str) or not program.strip():
        raise ValueError("'program' must be non-empty DSL source text")
    prop = doc.get("property")
    if not isinstance(prop, str) or not prop.strip():
        raise ValueError("'property' must be non-empty property text")
    fairness = doc.get("fairness", "weak")
    if fairness not in ("weak", "strong"):
        raise ValueError(f"'fairness' must be 'weak' or 'strong', got {fairness!r}")
    tier = doc.get("tier", "auto")
    if tier not in ("auto", "dense", "sparse"):
        raise ValueError(f"'tier' must be 'auto'/'dense'/'sparse', got {tier!r}")
    prove = doc.get("prove", False)
    if not isinstance(prove, bool):
        raise ValueError("'prove' must be a boolean")
    out: dict[str, Any] = {
        "program": program,
        "property": prop.strip(),
        "fairness": fairness,
        "tier": tier,
        "prove": prove,
    }
    name = doc.get("program_name")
    if name is not None:
        if not isinstance(name, str) or not name:
            raise ValueError("'program_name' must be a non-empty string")
        out["program_name"] = name
    for bound, kind in (
        ("deadline", float),
        ("node_budget", int),
        ("max_levels", int),
    ):
        val = doc.get(bound)
        if val is None:
            continue
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ValueError(f"'{bound}' must be a number")
        val = kind(val)
        if val <= 0 and bound != "deadline":
            raise ValueError(f"'{bound}' must be > 0")
        if val < 0:
            raise ValueError(f"'{bound}' must be >= 0")
        out[bound] = val
    return out


def request_key(program_digest: str, request: dict[str, Any]) -> str:
    """Content-addressed identity of a request's *answer*.

    ``program_digest`` is the engine's program digest; the key folds in
    the property text, fairness, prove flag, and requested tier.  The
    tier is part of the answer: the full space decides the paper's
    inductive judgment and the reachable subspace the
    reachable-restricted one, and the two disagree on properties whose
    counterexamples are unreachable.  Budgets and deadlines are excluded
    on purpose (they bound effort, not truth).
    """
    h = hashlib.sha256()
    h.update(program_digest.encode("ascii"))
    h.update(b"\x00")
    h.update(request["property"].encode("utf-8"))
    h.update(b"\x00")
    h.update(request["fairness"].encode("ascii"))
    h.update(b"\x00")
    h.update(b"prove" if request["prove"] else b"check")
    h.update(b"\x00")
    h.update(request["tier"].encode("ascii"))
    return h.hexdigest()
