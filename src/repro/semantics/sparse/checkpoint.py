"""Atomic, digest-keyed checkpoints for the sparse BFS exploration.

A checkpoint captures :class:`~repro.semantics.sparse.explorer._BfsState`
— the per-level node/parent/command arrays whose concatenation *is* the
intern table, plus the RNG-free level counter implicit in their count —
at a **level boundary**, so a resumed run replays the remaining levels
bit-identically to an uninterrupted one (the BFS is deterministic in
command order and sorted-array interning; nothing ambient feeds it).

A :class:`CheckpointPolicy` both writes and reads a snapshot:
:func:`~repro.semantics.sparse.explorer.reachable_subspace` given a
policy resumes a valid snapshot at ``policy.path`` (a complete one
loads without a BFS level or a write) and otherwise explores afresh,
replacing the file.

File format (version ``RPROCKPT1``)
-----------------------------------
::

    MAGIC (10 bytes)  b"RPROCKPT1\\n"
    HLEN  (8 bytes)   little-endian length of the JSON header
    HEADER            UTF-8 JSON (see below)
    PAYLOAD           the raw bytes of each array, in header order

The header records, per array: name, dtype string, shape, byte length,
and SHA-256 of the raw bytes.  It also records the **program digest** —
SHA-256 over ``program.describe()`` (every variable, domain, command and
fairness marker), the encoded space size, and the sorted fair-command
names — so resuming against an edited program or a different space fails
loudly with :class:`~repro.errors.CheckpointError` before a single array
is trusted.

Atomicity
---------
:func:`write_checkpoint` writes to ``<path>.tmp.<pid>`` in the target
directory, fsyncs the file, ``os.replace``\\ s it over the destination,
then fsyncs the directory.  A crash at any point leaves either the old
checkpoint or the new one — never a torn file — which
``tests/test_faultinject.py`` pins by injecting crashes at every write
stage.

Fail-closed loading
-------------------
:func:`load_checkpoint` re-hashes every payload array and verifies the
magic, header digest fields, and program digest before returning.  Any
mismatch — flipped byte, truncation, wrong program — raises
:class:`~repro.errors.CheckpointError`; there is no partial load.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.program import Program
from repro.errors import CheckpointError
from repro.semantics.budget import Budget
from repro.semantics.sparse.explorer import (
    DEFAULT_NODE_LIMIT,
    ReachableSubspace,
    _assemble,
    _BfsState,
    _run_bfs,
    _set_stats,
    adopt_subspace,
)
from repro.util.csr import in_sorted
from repro.util.durable import fsync_dir
from repro.util.faultinject import fault_point

__all__ = [
    "MAGIC",
    "CheckpointPolicy",
    "program_digest",
    "cache_path_for",
    "write_checkpoint",
    "load_checkpoint",
    "resume_exploration",
]

#: Format magic + version.  Bumped on any incompatible layout change, so
#: old readers refuse new files (and vice versa) instead of misparsing.
MAGIC = b"RPROCKPT1\n"

_HLEN_BYTES = 8


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and where the explorer snapshots its BFS state.

    ``path`` is the checkpoint file (atomically replaced on every write).
    A snapshot is due when ``every_levels`` completed levels have
    accumulated since the last write; one final snapshot (marked
    ``complete``) is always written at closure, and one on budget
    exhaustion.
    """

    path: str | os.PathLike
    every_levels: int | None = 16

    def __post_init__(self) -> None:
        if self.every_levels is not None and self.every_levels <= 0:
            raise ValueError(
                f"every_levels must be > 0, got {self.every_levels}"
            )

    def due(self, *, levels_since: int) -> bool:
        """Whether a snapshot is due at this level boundary."""
        return self.every_levels is not None and levels_since >= self.every_levels


def program_digest(program: Program) -> str:
    """SHA-256 identity of a program for checkpoint compatibility.

    Hashes the full structural description (variables, domains, initial
    predicate, every command and its fairness marker), the encoded space
    size, and the sorted fair-command names.  Any edit that could change
    the BFS — a command body, the initial condition, a domain bound —
    changes the digest, so a stale checkpoint is refused loudly.
    """
    h = hashlib.sha256()
    h.update(program.describe().encode("utf-8"))
    h.update(str(program.space.size).encode("ascii"))
    h.update(",".join(sorted(program.fair_names)).encode("utf-8"))
    return h.hexdigest()


def _array_entry(name: str, arr: np.ndarray) -> dict:
    raw = np.ascontiguousarray(arr).tobytes()
    return {
        "name": name,
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "nbytes": len(raw),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


def write_checkpoint(
    path: str | os.PathLike,
    program: Program,
    *,
    level_nodes: list[np.ndarray],
    level_parents: list[np.ndarray],
    level_pcmds: list[np.ndarray],
    mover_names: list[str],
    complete: bool,
    metrics: dict | None = None,
) -> str:
    """Atomically write a checkpoint; returns the (string) path.

    The per-level lists are serialized as one offsets array plus the
    concatenation of each list — CSR-style — so the payload is a handful
    of large contiguous arrays regardless of level count.

    ``metrics`` is an optional JSON-safe snapshot of the exploration
    statistics so far (``explored`` / ``levels`` / ``elapsed_s``),
    recorded in the header: a resumed run reads it back and reports
    *cumulative* figures instead of just the post-resume slice.  Purely
    observational — the loader validates the arrays, not the metrics.
    """
    path = os.fspath(path)
    rec = obs.get_recorder()
    offsets = np.zeros(len(level_nodes) + 1, dtype=np.int64)
    np.cumsum([n.shape[0] for n in level_nodes], out=offsets[1:])
    arrays: list[tuple[str, np.ndarray]] = [
        ("level_offsets", offsets),
        ("level_nodes", _concat(level_nodes)),
        ("level_parents", _concat(level_parents)),
        ("level_pcmds", _concat(level_pcmds)),
    ]
    header = {
        "magic": MAGIC.decode("ascii").strip(),
        "program": program.name,
        "program_digest": program_digest(program),
        "space_size": int(program.space.size),
        "levels": len(level_nodes),
        "explored": int(offsets[-1]),
        "complete": bool(complete),
        "mover_names": list(mover_names),
        "arrays": [_array_entry(name, arr) for name, arr in arrays],
    }
    if metrics is not None:
        header["metrics"] = dict(metrics)
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with rec.span("checkpoint.write", path=path, complete=bool(complete)):
            with open(tmp, "wb") as f:
                fault_point("checkpoint.write.begin", path=path)
                f.write(MAGIC)
                f.write(len(blob).to_bytes(_HLEN_BYTES, "little"))
                f.write(blob)
                for name, arr in arrays:
                    f.write(np.ascontiguousarray(arr).tobytes())
                    fault_point("checkpoint.write.payload", path=path, array=name)
                f.flush()
                os.fsync(f.fileno())
            fault_point("checkpoint.write.rename", path=path)
            os.replace(tmp, path)
            fsync_dir(os.path.dirname(path) or ".")
            if rec.enabled:
                rec.add("checkpoint.writes")
                payload = sum(entry["nbytes"] for entry in header["arrays"])
                rec.add(
                    "checkpoint.bytes_written",
                    len(MAGIC) + _HLEN_BYTES + len(blob) + payload,
                )
    except BaseException:
        # Best-effort removal of the temp file; the *destination* is
        # untouched by construction (os.replace is the only publish).
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])


def load_checkpoint(
    path: str | os.PathLike, program: Program | None = None
) -> dict:
    """Read and fully validate a checkpoint; fail-closed on any defect.

    Returns ``{"header": dict, "arrays": {name: ndarray}}``.  When
    ``program`` is given, the header's program digest must match
    :func:`program_digest` of it — resuming against an edited program or
    a different space raises :class:`~repro.errors.CheckpointError`.
    """
    path = os.fspath(path)
    rec = obs.get_recorder()
    with rec.span("checkpoint.load", path=path):
        return _load_checkpoint(path, program, rec)


def _load_checkpoint(path: str, program: Program | None, rec) -> dict:
    try:
        with open(path, "rb") as f:
            magic = f.read(len(MAGIC))
            if magic != MAGIC:
                raise CheckpointError(
                    f"{path}: not a checkpoint (bad magic {magic!r}; "
                    f"expected {MAGIC!r})",
                    reason="bad-magic",
                )
            hlen_raw = f.read(_HLEN_BYTES)
            if len(hlen_raw) != _HLEN_BYTES:
                raise CheckpointError(
                    f"{path}: truncated before header length",
                    reason="truncated",
                )
            hlen = int.from_bytes(hlen_raw, "little")
            if not 0 < hlen <= 1 << 30:
                raise CheckpointError(
                    f"{path}: implausible header length {hlen}",
                    reason="corrupt-header",
                )
            blob = f.read(hlen)
            if len(blob) != hlen:
                raise CheckpointError(f"{path}: truncated header", reason="truncated")
            try:
                header = json.loads(blob.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise CheckpointError(
                    f"{path}: corrupt header ({exc})", reason="corrupt-header"
                ) from exc
            arrays: dict[str, np.ndarray] = {}
            for entry in header.get("arrays", []):
                raw = f.read(entry["nbytes"])
                if len(raw) != entry["nbytes"]:
                    raise CheckpointError(
                        f"{path}: truncated payload for array "
                        f"{entry['name']!r}",
                        reason="truncated",
                    )
                digest = hashlib.sha256(raw).hexdigest()
                if digest != entry["sha256"]:
                    raise CheckpointError(
                        f"{path}: payload digest mismatch for array "
                        f"{entry['name']!r} (corrupt checkpoint)",
                        reason="payload-digest",
                    )
                arrays[entry["name"]] = np.frombuffer(
                    raw, dtype=np.dtype(entry["dtype"])
                ).reshape(entry["shape"])
            if f.read(1):
                raise CheckpointError(
                    f"{path}: trailing bytes after payload",
                    reason="trailing-bytes",
                )
    except OSError as exc:
        raise CheckpointError(
            f"{path}: cannot read checkpoint: {exc}", reason="io"
        ) from exc
    for required in ("level_offsets", "level_nodes", "level_parents",
                     "level_pcmds"):
        if required not in arrays:
            raise CheckpointError(
                f"{path}: missing array {required!r}", reason="inconsistent"
            )
    offsets = arrays["level_offsets"]
    if (
        offsets.ndim != 1
        or offsets.shape[0] != header.get("levels", -1) + 1
        or offsets[-1] != header.get("explored", -1)
        or offsets.shape[0] < 2
        or (np.diff(offsets) < 0).any()
    ):
        raise CheckpointError(
            f"{path}: inconsistent level offsets", reason="inconsistent"
        )
    for name in ("level_nodes", "level_parents", "level_pcmds"):
        if arrays[name].shape[0] != offsets[-1]:
            raise CheckpointError(
                f"{path}: array {name!r} length disagrees with offsets",
                reason="inconsistent",
            )
    if program is not None:
        want = program_digest(program)
        got = header.get("program_digest")
        if got != want:
            raise CheckpointError(
                f"{path}: checkpoint was written for a different program "
                f"or space (digest {got} != {want}); refusing to resume",
                reason="program-digest",
            )
        movers = [c.name for c in program.commands if not c.is_skip()]
        if header.get("mover_names") != movers:
            raise CheckpointError(
                f"{path}: command set changed since the checkpoint "
                "was written; refusing to resume",
                reason="command-set",
            )
    if rec.enabled:
        rec.add("checkpoint.loads")
    return {"header": header, "arrays": arrays}


def _split_levels(arrays: dict[str, np.ndarray]) -> _BfsState:
    offsets = arrays["level_offsets"]
    bounds = [
        (int(offsets[i]), int(offsets[i + 1]))
        for i in range(offsets.shape[0] - 1)
    ]
    # .copy() so the state owns writable arrays (frombuffer is read-only).
    level_nodes = [arrays["level_nodes"][a:b].copy() for a, b in bounds]
    level_parents = [arrays["level_parents"][a:b].copy() for a, b in bounds]
    level_pcmds = [arrays["level_pcmds"][a:b].copy() for a, b in bounds]
    known = np.sort(np.concatenate(level_nodes))
    return _BfsState(
        level_nodes=level_nodes,
        level_parents=level_parents,
        level_pcmds=level_pcmds,
        known=known,
    )


def cache_path_for(root: str | os.PathLike, program: Program) -> str:
    """The digest-addressed checkpoint path of ``program`` under ``root``.

    The certification service (and any caller keeping a directory of
    checkpoints rather than naming files) stores one checkpoint per
    program identity: ``<root>/<program_digest>.ckpt``.  Content
    addressing makes the stale-resume problem structural — an edited
    program hashes to a different path, so it can never even *find* the
    old checkpoint, let alone resume from it.
    """
    return os.path.join(os.fspath(root), f"{program_digest(program)}.ckpt")


def resume_exploration(
    path: str | os.PathLike,
    program: Program,
    *,
    budget: Budget | None = None,
    checkpoint: CheckpointPolicy | None = None,
) -> ReachableSubspace:
    """Resume the checkpointed exploration of ``program`` at ``path`` to closure.

    Validates the checkpoint against the program digest (fail-closed)
    and rebuilds the BFS state from the stored levels.  A complete
    snapshot becomes the subspace without a BFS level or a write, so it
    satisfies any ``budget``; a partial one continues the loop, with a
    fresh budget window and further snapshots if ``checkpoint`` is
    given.  The result is bit-identical to an uninterrupted
    :func:`~repro.semantics.sparse.explorer.explore` (same global ids,
    distances, parents, successor columns), and is published to the
    per-program cache so subsequently routed checks reuse it.
    """
    loaded = load_checkpoint(path, program)
    header = loaded["header"]
    state = _split_levels(loaded["arrays"])
    # Cumulative statistics: credit the checkpointed prefix's recorded
    # elapsed time, so the resumed run reports whole-exploration figures
    # (nodes/levels already accumulate through the restored levels).
    recorded = header.get("metrics")
    if isinstance(recorded, dict):
        try:
            state.elapsed_base = float(recorded.get("elapsed_s", 0.0))
        except (TypeError, ValueError):
            state.elapsed_base = 0.0
    if header.get("complete"):
        sub = _closed_subspace(path, program, state)
    else:
        sub = _run_bfs(
            program,
            state,
            node_limit=DEFAULT_NODE_LIMIT,
            budget=budget,
            checkpoint=checkpoint or CheckpointPolicy(path=os.fspath(path)),
        )
    adopt_subspace(program, sub)
    return sub


def _closed_subspace(path, program: Program, state: _BfsState) -> ReachableSubspace:
    """The subspace of a complete snapshot.  One pass of every command
    over the last level checks closure; a successor outside the stored
    levels refuses the file as ``reason="inconsistent"``."""
    movers = [c for c in program.commands if not c.is_skip()]
    env = program.space.frontier_env(state.frontier)
    for cmd in movers:
        succ = cmd.succ_in(env)
        if not in_sorted(state.known, succ).all():
            raise CheckpointError(
                f"{path}: marked complete, but command {cmd.name} leads "
                "from its last level to a state it does not hold",
                reason="inconsistent",
            )
    sub = _assemble(program, state, movers)
    _set_stats(sub, state.elapsed_base, state.levels)
    return sub
