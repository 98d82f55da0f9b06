"""Set-up probe: prints ``ready`` once one set-up stage has finished.

    python3 perfbench/probe.py bare|import|serve

``bare`` is the interpreter alone, ``import`` adds ``import repro.api``,
and ``serve`` adds a ``CertificationService`` whose worker has answered a
first request.  ``workload.py`` times fresh starts of this script from
spawn to the ``ready`` line with :func:`start_s`.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / "perfbench-out"
STAGES = ("bare", "import", "serve")

#: Service shape: one worker process and (in the workload) two client
#: threads, so the parent and the worker fit the two cores the
#: benchmark was tuned on without oversubscribing them.
SERVE_WORKERS = 1
WARM_REQUEST = {
    "program": (
        "program Warm\ndeclare shared w : int[0..2]\ninitially w = 0\n"
        "assign\n  fair up: w < 2 -> w := w + 1\nend"
    ),
    "property": "w = 0 ~> w = 2",
}


def start_service(cache_dir):
    """A ``CertificationService`` whose worker has answered one request."""
    from repro.service.core import CertificationService, ServiceConfig

    svc = CertificationService(
        ServiceConfig(workers=SERVE_WORKERS, cache_dir=str(cache_dir))
    )
    reply = svc.submit(dict(WARM_REQUEST))
    if reply.get("status") != "ok":
        svc.close()
        raise RuntimeError(f"service warm-up request failed: {reply}")
    return svc


def start_s(stage: str) -> float:
    """Seconds from spawning this script for ``stage`` until it prints
    ``ready``; the probe inherits the caller's environment."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), stage],
        stdout=subprocess.PIPE,
        cwd=HERE.parent,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe {stage!r} failed (exit {proc.returncode})")
    return elapsed


def main(stage: str) -> int:
    if stage not in STAGES:
        print(f"probe: unknown stage {stage!r}; expected one of {STAGES}", file=sys.stderr)
        return 2
    if stage != "bare":
        import repro.api  # noqa: F401
    if stage != "serve":
        print("ready", flush=True)
        return 0
    import shutil
    import tempfile

    os.makedirs(OUT_DIR, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="probe-cache-", dir=OUT_DIR)
    try:
        svc = start_service(cache_dir)
        print("ready", flush=True)
        svc.close()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1] if len(sys.argv) > 1 else ""))
