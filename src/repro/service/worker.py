"""The certification worker: one subprocess, one check at a time.

Workers are the service's **crash isolation boundary**.  The supervisor
talks to each worker over its stdin/stdout pipes (length-prefixed JSON
frames, :mod:`repro.service.protocol`); anything that kills the worker
— a segfault in a kernel, an OOM kill, an injected ``os._exit`` — is an
EOF on the parent's pipe, never an exception in the parent's process.
A worker runs **one request at a time**, so reaping a stalled worker
cancels exactly the stalled check and nothing else.

Request handling maps the service's deadline contract onto the
engine's budget machinery: the request deadline becomes a
:class:`~repro.semantics.budget.Budget`, and the worker hands it to
:func:`repro.api.verify` with the cache's snapshot policy, so a request
that routes sparse explores under both.  The snapshot is
the expensive, property-independent artifact: a later request for the
program loads it when complete (whatever its deadline) or resumes it
when partial, and budget exhaustion is a structured UNKNOWN document
carrying its path.

At startup the worker calls
:func:`repro.util.faultinject.arm_from_env`, which is how the chaos
suite injects crashes/stalls *inside* the worker from outside the
process: the supervisor forwards ``REPRO_FAULTS`` verbatim.

Run directly as ``python -m repro.service.worker [--cache-dir DIR]``;
normally only the supervisor does this.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, BinaryIO

from repro.errors import DslSyntaxError, ReproError
from repro.semantics.budget import Budget
from repro.service.cache import ServiceCache
from repro.service.protocol import read_frame, write_frame
from repro.util.faultinject import arm_from_env, fault_point

__all__ = ["handle_request", "run_worker", "main"]


def _parse_request_program(request: dict[str, Any]):
    """Program + property objects from a normalized request document."""
    from repro.dsl import parse_module, parse_program, parse_property

    name = request.get("program_name")
    if name is not None:
        programs = parse_module(request["program"])
        if name not in programs:
            raise DslSyntaxError(
                f"module defines no program {name!r} "
                f"(has: {', '.join(sorted(programs))})"
            )
        program = programs[name]
    else:
        program = parse_program(request["program"])
    prop = parse_property(request["property"], program)
    return program, prop


def _budget_of(request: dict[str, Any]) -> Budget | None:
    deadline = request.get("deadline")
    node_budget = request.get("node_budget")
    max_levels = request.get("max_levels")
    if deadline is None and node_budget is None and max_levels is None:
        return None
    return Budget(
        deadline=deadline, node_budget=node_budget, max_levels=max_levels
    )


def handle_request(
    request: dict[str, Any], cache: ServiceCache | None
) -> dict[str, Any]:
    """Decide one normalized request; always returns a response payload.

    The payload's ``status`` is ``"ok"`` (decided; ``holds`` is a
    bool), ``"unknown"`` (budget ran out; resumable statistics), or
    ``"error"`` (structured engine refusal).  Library exceptions never
    escape — but injected crash faults (``os._exit``) and genuine
    interpreter death of course do, which is the point of running this
    in a subprocess.
    """
    from repro.api import verify
    from repro.semantics.sparse.checkpoint import program_digest

    try:
        program, prop = _parse_request_program(request)
    except (DslSyntaxError, ReproError) as exc:
        return _error_payload("parse-error", exc)
    try:
        digest = program_digest(program)
    except RecursionError as exc:
        return _error_payload("engine-error", exc)
    fault_point("service.worker.check", digest=digest, kind=type(prop).__name__)
    try:
        verdict = verify(
            program,
            prop,
            tier=request["tier"],
            fairness=request["fairness"],
            budget=_budget_of(request),
            prove=request["prove"],
            checkpoint=None if cache is None else cache.checkpoint_policy(program),
        )
    except ReproError as exc:
        return _error_payload("engine-error", exc)

    if verdict.holds is None:
        if verdict.partial is not None:
            return {**verdict.partial.to_doc(), "tier": verdict.tier}
        return {
            "status": "unknown",
            "tier": verdict.tier,
            "reason": "refused",
            "message": verdict.metrics.get("message", ""),
        }

    payload: dict[str, Any] = {
        "status": "ok",
        "holds": bool(verdict.holds),
        "tier": verdict.tier,
        "digest": digest,
        "subject": verdict.metrics.get("subject", ""),
        "message": verdict.metrics.get("message", ""),
        "certified": verdict.certificate is not None,
    }
    return payload


def _error_payload(code: str, exc: BaseException) -> dict[str, Any]:
    return {
        "status": "error",
        "error": {"code": code, "message": f"{type(exc).__name__}: {exc}"},
    }


def run_worker(
    stdin: BinaryIO, stdout: BinaryIO, cache: ServiceCache | None
) -> int:
    """Frame loop: read request, decide, reply; EOF ends the worker."""
    while True:
        frame = read_frame(stdin)
        if frame is None:
            return 0
        seq = frame.get("seq")
        payload = handle_request(frame.get("request", {}), cache)
        write_frame(stdout, {"seq": seq, "payload": payload})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-service-worker")
    parser.add_argument("--cache-dir", default=None)
    opts = parser.parse_args(argv)
    arm_from_env()
    # The frames own stdout; anything the engine prints must go to
    # stderr or it would desynchronize the pipe protocol.
    out = sys.stdout.buffer
    sys.stdout = sys.stderr
    cache = ServiceCache(opts.cache_dir) if opts.cache_dir else None
    return run_worker(sys.stdin.buffer, out, cache)


if __name__ == "__main__":
    raise SystemExit(main())
