#!/usr/bin/env python3
"""CI chaos driver: a live certification server under injected failure.

Boots ``python -m repro serve`` as a real subprocess, arms worker kills
through ``REPRO_FAULTS`` (forwarded by the supervisor to every worker it
spawns), fires a concurrent request mix with *known* expected verdicts
over HTTP, and asserts the service's chaos contract:

- **zero wrong answers** — every decided verdict matches the expected
  truth value;
- **no hangs** — every request returns within the client timeout;
- **structured degradation only** — non-verdict outcomes are UNKNOWN,
  load-shed, or coded errors from the protocol registry;
- **the server survives** — the health endpoint answers after the mix,
  with the crash counters proving the chaos actually landed;
- **hostile input is refused, not fatal** — a property nested 400
  parentheses deep gets HTTP 400 ``parse-error`` and a 200 KB body of
  nested JSON arrays gets HTTP 400 ``bad-request``;
- **repeats are served from the cache** — a burst of one request
  carries the expected verdict every time, and every answer after the
  first is ``cached``;
- **a complete snapshot satisfies any budget** — the mix also sends
  ``tier: sparse`` requests, and a ``tier: auto`` request for a program
  above the sparse threshold, whose workers write the program's
  subspace snapshot under the cache directory; afterwards a
  ``deadline: 0`` request for each program is decided from its
  snapshot, and every snapshot file loads as complete.

Usage (CI runs exactly this)::

    PYTHONPATH=src python tools/service_chaos.py

Exits non-zero with a report on any violation.  The same scenarios run
in-process (faster, finer-grained) in ``tests/test_service_chaos.py``;
this driver exists to exercise the *deployed* shape — real server
process, real sockets, real worker subprocesses — in the CI service
job.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.client import ServiceClient  # noqa: E402
from repro.service.protocol import ERROR_CODES  # noqa: E402

COUNTER = """
program counter
declare
  local c : int[0..3]
initially
  c = 0
assign
  fair step: c < 3 -> c := c + 1
end
"""

STUCK = COUNTER.replace("c < 3", "c < 2").replace(
    "program counter", "program stuck"
)

#: COUNTER plus six variables no command touches, all pinned initially:
#: 4e6 encoded states, above the sparse threshold, so ``tier: auto``
#: routes it sparse.  Its reachable slice is COUNTER's, and its leads-to
#: holds on every state as well as on the reachable ones.
WIDE = """
program wide
declare
  local c : int[0..3];
  local w0 : int[0..9]; local w1 : int[0..9]; local w2 : int[0..9];
  local w3 : int[0..9]; local w4 : int[0..9]; local w5 : int[0..9]
initially
  c = 0 /\\ w0 = 0 /\\ w1 = 0 /\\ w2 = 0 /\\ w3 = 0 /\\ w4 = 0 /\\ w5 = 0
assign
  fair step: c < 3 -> c := c + 1
end
"""

#: (request, expected holds) — None expected means "any structured
#: non-verdict outcome is acceptable, a verdict must still be correct".
MIX = [
    ({"program": COUNTER, "property": "true ~> c = 3"}, True),
    ({"program": COUNTER, "property": "invariant c <= 3"}, True),
    ({"program": STUCK, "property": "true ~> c = 3"}, False),
    ({"program": COUNTER, "property": "c = 0 ~> c >= 2"}, True),
    ({"program": COUNTER, "property": "true ~> c = 3", "prove": True}, True),
    ({"program": COUNTER, "property": "true ~> c = 3", "tier": "sparse"}, True),
    ({"program": STUCK, "property": "true ~> c = 3", "tier": "sparse"}, False),
    ({"program": COUNTER, "property": "c = 0 ~> c >= 2", "tier": "sparse"}, True),
    ({"program": WIDE, "property": "true ~> c = 3"}, True),
]

#: Sent after the mix, when the sparse rows have left complete snapshots
#: of COUNTER and WIDE: a zero deadline must not keep them from a
#: verdict.  The properties are new, so the verdict cache cannot answer.
ZERO_DEADLINE = [
    (
        {"program": COUNTER, "property": "c = 2 ~> c = 3", "tier": "sparse",
         "deadline": 0},
        True,
    ),
    ({"program": WIDE, "property": "c = 2 ~> c = 3", "deadline": 0}, True),
]

#: Input deeper than the interpreter's stack: (request body, expected
#: HTTP status, expected error code).
HOSTILE = [
    (
        json.dumps({
            "program": COUNTER,
            "property": "(" * 400 + "c = 0" + ")" * 400 + " ~> c = 3",
        }).encode("utf-8"),
        400,
        "parse-error",
    ),
    (b"[" * 100_000 + b"]" * 100_000, 400, "bad-request"),
]

#: One request repeated in sequence after the mix, and its verdict.
BURST = ({"program": COUNTER, "property": "c = 1 ~> c = 3"}, True)
BURST_REPEATS = 20

PORT = int(os.environ.get("SERVICE_CHAOS_PORT", "8431"))
ROUNDS = int(os.environ.get("SERVICE_CHAOS_ROUNDS", "4"))
THREADS = int(os.environ.get("SERVICE_CHAOS_THREADS", "4"))


def wait_for_health(client: ServiceClient, deadline: float = 30.0) -> None:
    t0 = time.monotonic()
    while True:
        try:
            if client.health()["status"] == "ok":
                return
        except (OSError, urllib.error.URLError):
            pass
        if time.monotonic() - t0 > deadline:
            raise SystemExit("service never became healthy")
        time.sleep(0.2)


def post_raw(base_url: str, body: bytes) -> tuple[int, dict]:
    """POST ``body`` as is; returns the HTTP status and the JSON answer."""
    req = urllib.request.Request(
        base_url + "/v1/verify",
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def check_hostile(base_url: str) -> list[str]:
    """Failures among the :data:`HOSTILE` requests."""
    failures = []
    for body, want_status, want_code in HOSTILE:
        try:
            status, doc = post_raw(base_url, body)
        except (OSError, ValueError) as exc:
            failures.append(f"{body[:40]!r}...: no answer ({exc})")
            continue
        code = (doc.get("error") or {}).get("code")
        if (status, code) != (want_status, want_code):
            failures.append(
                f"{body[:40]!r}...: HTTP {status} {code}, expected "
                f"{want_status} {want_code}"
            )
    return failures


def check_burst(client: ServiceClient) -> list[str]:
    """Failures among :data:`BURST_REPEATS` sequential repeats of one
    request: each must carry the verdict, all but the first cached."""
    request, expected = BURST
    failures = []
    for n in range(BURST_REPEATS):
        doc = client.verify(dict(request))
        if doc.get("status") != "ok" or doc.get("holds") is not expected:
            failures.append(f"repeat {n}: {doc!r}")
        elif n > 0 and doc.get("cached") is not True:
            failures.append(f"repeat {n} was not served from the cache")
    return failures


def check_snapshots(client: ServiceClient, cache_dir: Path) -> list[str]:
    """Failures of the :data:`ZERO_DEADLINE` requests (each decided on
    the sparse tier) and of the snapshot files under ``cache_dir``: each
    must load and be complete."""
    from repro.errors import CheckpointError
    from repro.semantics.sparse.checkpoint import load_checkpoint

    failures = []
    for request, expected in ZERO_DEADLINE:
        doc = client.verify(dict(request))
        if (doc.get("status"), doc.get("holds"), doc.get("tier")) != (
            "ok",
            expected,
            "sparse",
        ):
            failures.append(f"zero-deadline request: {doc!r}")
    snapshots = sorted((cache_dir / "subspaces").glob("*.ckpt"))
    if not snapshots:
        failures.append("no subspace snapshot was written")
    for path in snapshots:
        try:
            complete = load_checkpoint(path)["header"]["complete"]
        except CheckpointError as exc:
            failures.append(f"{path.name}: {exc}")
            continue
        if complete is not True:
            failures.append(f"{path.name}: snapshot is not complete")
    return failures


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    # Each worker's second check dies (per-process hit counters), so
    # crashes recur for the whole run as workers are respawned.
    env["REPRO_FAULTS"] = "service.worker.check=kill:after=1:times=1"

    with tempfile.TemporaryDirectory(prefix="service-chaos-") as tmp:
        cache_dir = Path(tmp) / "cache"
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(PORT), "--workers", "2",
                "--cache-dir", str(cache_dir),
                "--max-pending", "16", "--max-retries", "3",
                "--breaker-threshold", "1000",  # keep the chaos flowing
            ],
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            client = ServiceClient(
                f"http://127.0.0.1:{PORT}", timeout=120.0, max_retries=5
            )
            wait_for_health(client)

            wrong: list[str] = []
            malformed: list[str] = []
            outcomes = {"ok": 0, "unknown": 0, "error": 0, "shed": 0}
            lock = threading.Lock()

            def run_mix() -> None:
                for _ in range(ROUNDS):
                    for request, expected in MIX:
                        doc = client.verify(dict(request))
                        status = doc.get("status")
                        with lock:
                            if status not in outcomes:
                                malformed.append(f"bad status in {doc!r}")
                                continue
                            outcomes[status] += 1
                            if status == "ok" and doc.get("holds") is not expected:
                                wrong.append(
                                    f"{request['property']!r}: holds="
                                    f"{doc.get('holds')} expected {expected}"
                                )
                            if status == "error":
                                code = (doc.get("error") or {}).get("code")
                                if code not in ERROR_CODES:
                                    malformed.append(f"unknown code in {doc!r}")

            threads = [
                threading.Thread(target=run_mix) for _ in range(THREADS)
            ]
            t0 = time.monotonic()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            elapsed = time.monotonic() - t0

            snapshots = check_snapshots(client, cache_dir)
            hostile = check_hostile(client.base_url)
            burst = check_burst(client)
            health = client.health()
            crashes = health["pool"]["crashes"]
            total = sum(outcomes.values())
            print(
                f"chaos mix: {total} requests in {elapsed:.1f}s -> "
                f"{outcomes} | worker crashes {crashes}, "
                f"retries {health['pool']['retries']}, "
                f"cache {health['cache']}"
            )
            failures = []
            if wrong:
                failures.append(f"WRONG ANSWERS ({len(wrong)}): {wrong[:5]}")
            if malformed:
                failures.append(f"MALFORMED ({len(malformed)}): {malformed[:5]}")
            if outcomes["ok"] == 0:
                failures.append("no request ever succeeded")
            if crashes == 0:
                failures.append(
                    "no worker crashes recorded: the chaos never landed"
                )
            if snapshots:
                failures.append(f"SNAPSHOTS ({len(snapshots)}): {snapshots[:5]}")
            if hostile:
                failures.append(f"HOSTILE INPUT ({len(hostile)}): {hostile}")
            if burst:
                failures.append(f"BURST ({len(burst)}): {burst[:5]}")
            if failures:
                print("service chaos FAILED:\n  " + "\n  ".join(failures))
                return 1
            print(
                "service chaos ok: zero wrong answers under worker kills, "
                "complete snapshots decide a zero deadline, hostile input "
                "refused, repeats served from the cache"
            )
            return 0
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()


if __name__ == "__main__":
    raise SystemExit(main())
