"""Bench-trajectory recorder: distill pytest-benchmark output into a
committed per-PR snapshot.

Runs the benchmark suite with ``--benchmark-json`` and reduces the result
to ``{benchmark id: median seconds}`` plus, per id, the spread of the
rounds behind that median (``stats``: ``rounds``, ``min`` and ``iqr``
seconds, from pytest-benchmark's stats), written as a sorted JSON file
(``BENCH_<n>.json`` at the repo root by convention).  Committing one
snapshot per PR gives future sessions an at-a-glance perf trajectory::

    PYTHONPATH=src python benchmarks/record.py --out BENCH_2.json
    PYTHONPATH=src python benchmarks/record.py --quick   # subset, for smoke

Compare two snapshots::

    PYTHONPATH=src python benchmarks/record.py --diff BENCH_1.json BENCH_2.json

Where both snapshots carry ``stats`` for an id and the medians differ by
less than the sum of the two IQRs, ``--diff`` prints ``noise`` in place
of the speedup: the move is inside the spread of the rounds.

``--diff … --github-summary`` renders the comparison as a GitHub-flavored
Markdown table instead — CI appends it to ``$GITHUB_STEP_SUMMARY`` as the
informational bench-drift report (never a build failure; machine timing
noise belongs in a summary, not a verdict).

CI smoke (crash check only, no timing, no snapshot)::

    PYTHONPATH=src python benchmarks/record.py --smoke

``--smoke`` runs the sparse-tier scenario, certificate-check, telemetry,
compositional-certification, generated-workload (scenario families +
fuzzer), and certification-service benchmarks with timing disabled
(the service file still asserts its 100 req/s cached-hit floor), then a checkpoint/resume
round trip on the product scenario (budget-exhaust → UNKNOWN → resume →
same verdicts as an unbudgeted run; see docs/robustness.md), then one
instrumented run whose JSONL trace and run manifest are left at the
repo root (``obs-smoke-trace.jsonl`` / ``obs-smoke-manifest.json``) for
CI to upload as workflow artifacts: it fails on crash or assertion
regression, never on a timing regression, keeping the committed
``BENCH_<n>.json`` trajectory the only place where numbers live.

Snapshots written with ``--out`` also record a ``machine`` block
(Python and numpy versions, CPU count, platform), and ``--diff`` prints
both snapshots' blocks when they differ: a speedup measured on another
numpy release may be numpy's, not the engine's (numpy 2.4 answers a
flag-less ``np.unique`` with a hash table that is 20-70× slower than
sort + compare on node ids).

Snapshots written with ``--out`` also attach a compact run-manifest
summary (tier, whole-run counters, per-phase wall seconds) from one
instrumented ``scenario product --prove`` run, and ``--diff`` reports
counter deltas between two snapshots' manifests — so changes in *work
done* (BFS levels, obligations, cache hits) are visible alongside
changes in time taken.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


#: Per-id spread fields copied from pytest-benchmark's stats.
SPREAD_FIELDS = ("rounds", "min", "iqr")


def distill(payload: dict) -> tuple[dict[str, float], dict[str, dict]]:
    """Reduce a ``--benchmark-json`` payload to ``(medians, stats)``: the
    median seconds per benchmark id, and per id the :data:`SPREAD_FIELDS`
    of the rounds behind it.  Both are sorted by id."""
    medians, stats = {}, {}
    for bench in sorted(payload["benchmarks"], key=lambda b: b["fullname"]):
        key = bench["fullname"]
        medians[key] = bench["stats"]["median"]
        stats[key] = {f: bench["stats"][f] for f in SPREAD_FIELDS}
    return medians, stats


def run_benchmarks(
    targets: list[str], extra: list[str]
) -> tuple[dict[str, float], dict[str, dict]]:
    """Run pytest-benchmark on ``targets``; return :func:`distill` of it."""
    with tempfile.TemporaryDirectory() as tmp:
        json_path = Path(tmp) / "bench.json"
        cmd = [
            sys.executable, "-m", "pytest", *targets,
            "--benchmark-only", f"--benchmark-json={json_path}", "-q",
            *extra,
        ]
        proc = subprocess.run(cmd, cwd=REPO_ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark run failed (exit {proc.returncode})")
        payload = json.loads(json_path.read_text())
    return distill(payload)


def speedup(key: str, old_doc: dict, new_doc: dict) -> str | None:
    """``old/new`` median ratio of ``key`` as ``1.23x``, or ``noise``
    when both snapshots carry ``stats`` for it and the medians differ by
    less than the sum of their IQRs; ``None`` without two medians."""
    old_s = old_doc["medians"].get(key)
    new_s = new_doc["medians"].get(key)
    if not (old_s and new_s):
        return None
    # ``stats`` is absent from snapshots up to BENCH_9.
    old_st = old_doc.get("stats", {}).get(key)
    new_st = new_doc.get("stats", {}).get(key)
    if old_st and new_st and abs(old_s - new_s) < old_st["iqr"] + new_st["iqr"]:
        return "noise"
    return f"{old_s / new_s:.2f}x"


def diff(old_path: Path, new_path: Path, *, github: bool = False) -> None:
    old_doc = json.loads(old_path.read_text())
    new_doc = json.loads(new_path.read_text())
    old, new = old_doc["medians"], new_doc["medians"]
    # One comparison pass over the UNION of ids, two renderers: rows are
    # (key, old_s | None, new_s | None, speedup text | None).  Benchmarks
    # present in only one snapshot get first-class "new"/"removed" rows —
    # an id that appears or disappears is trajectory information, not
    # noise to silently intersect away.
    rows = [
        (key, old.get(key), new.get(key), speedup(key, old_doc, new_doc))
        for key in sorted(set(old) | set(new))
    ]
    added = sum(1 for _, old_s, _, _ in rows if old_s is None)
    removed = sum(1 for _, _, new_s, _ in rows if new_s is None)
    if github:
        print(f"### Benchmark drift: `{old_path.name}` vs fresh run")
        print()
        print("_Informational only — medians from one CI run are noisy; "
              "the committed `BENCH_<n>.json` trajectory is the record._")
        print()
        print("| benchmark | old (ms) | new (ms) | speedup |")
        print("| --- | ---: | ---: | ---: |")
        for key, old_s, new_s, speed in rows:
            if old_s is None:
                print(f"| `{key}` | — | {new_s * 1e3:.3f} | new |")
            elif new_s is None:
                print(f"| `{key}` | {old_s * 1e3:.3f} | — | removed |")
            elif speed is None:
                print(f"| `{key}` | {old_s * 1e3:.3f} | "
                      f"{new_s * 1e3:.3f} | — |")
            else:
                print(f"| `{key}` | {old_s * 1e3:.3f} | "
                      f"{new_s * 1e3:.3f} | {speed} |")
        if added or removed:
            print()
            print(f"_{added} new, {removed} removed benchmark id(s)._")
        return
    width = max((len(k) for k, *_ in rows), default=0)
    for key, old_s, new_s, speed in rows:
        if old_s is None:
            print(f"{key:<{width}}  {'new':>9} -> {new_s * 1e3:9.3f}ms")
        elif new_s is None:
            print(f"{key:<{width}}  {old_s * 1e3:9.3f}ms -> {'removed':>9}")
        elif speed is None:
            print(f"{key:<{width}}  {old_s * 1e3:9.3f}ms -> "
                  f"{new_s * 1e3:9.3f}ms")
        else:
            print(f"{key:<{width}}  {old_s * 1e3:9.3f}ms -> "
                  f"{new_s * 1e3:9.3f}ms   {speed:>6}")
    if added or removed:
        print(f"({added} new, {removed} removed benchmark id(s))")


def machine_fingerprint() -> dict:
    """The interpreter, numpy and hardware a snapshot was recorded on."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
    }


def diff_machines(old_doc: dict, new_doc: dict, *, github: bool = False) -> None:
    """Print both snapshots' ``machine`` blocks when they differ (a
    snapshot older than the block reads as not recorded)."""
    old_m, new_m = old_doc.get("machine"), new_doc.get("machine")
    if old_m == new_m:
        return
    keys = sorted(set(old_m or {}) | set(new_m or {}))

    def show(block: dict | None, key: str) -> str:
        if block is None:
            return "not recorded"
        return str(block.get(key, "—"))

    if github:
        print()
        print("#### Machines differ (timings may not be comparable)")
        print()
        print("| field | old | new |")
        print("| --- | --- | --- |")
        for key in keys:
            print(f"| {key} | {show(old_m, key)} | {show(new_m, key)} |")
        return
    print("machines differ (timings may not be comparable):")
    width = max((len(k) for k in keys), default=0)
    for key in keys:
        print(f"  {key:<{width}}  {show(old_m, key)} -> {show(new_m, key)}")


def diff_manifests(old_doc: dict, new_doc: dict, *, github: bool = False) -> None:
    """Report counter deltas between two snapshots' manifest summaries.

    Only counters whose values differ are shown: manifests record *work
    done* (BFS levels, obligations discharged, cache hits), so any delta
    is a behavior change worth a look, while equal rows are noise.
    """
    old_m, new_m = old_doc.get("manifest"), new_doc.get("manifest")
    if not old_m or not new_m:
        return
    old_c = old_m.get("counters", {})
    new_c = new_m.get("counters", {})
    changed = [
        (key, old_c.get(key), new_c.get(key))
        for key in sorted(set(old_c) | set(new_c))
        if old_c.get(key) != new_c.get(key)
    ]
    if not changed:
        return
    if github:
        print()
        print("#### Manifest counter deltas (work done, not time taken)")
        print()
        print("| counter | old | new |")
        print("| --- | ---: | ---: |")
        for key, old_v, new_v in changed:
            print(f"| `{key}` | {old_v if old_v is not None else '—'} | "
                  f"{new_v if new_v is not None else '—'} |")
        return
    print("manifest counter deltas:")
    width = max(len(k) for k, *_ in changed)
    for key, old_v, new_v in changed:
        print(f"  {key:<{width}}  "
              f"{old_v if old_v is not None else '—'} -> "
              f"{new_v if new_v is not None else '—'}")


def capture_reference_manifest() -> dict | None:
    """A compact manifest summary from one instrumented reference run.

    Runs ``scenario product --prove --metrics-out`` and keeps the parts
    that are stable across machines: the tier, the whole-run counters,
    and the per-phase wall seconds (informational; the counters are the
    diffable payload).  Returns ``None`` if the run fails — a snapshot
    without a manifest beats no snapshot.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    with tempfile.TemporaryDirectory(prefix="repro-manifest-") as tmp:
        out = Path(tmp) / "manifest.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "scenario", "product",
             "--prove", "--metrics-out", str(out)],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0 or not out.exists():
            return None
        manifest = json.loads(out.read_text())
    return {
        "tier": manifest.get("tier"),
        "counters": manifest.get("counters", {}),
        "phases": {
            row["phase"]: round(row["wall_s"], 6)
            for row in manifest.get("phases", [])
        },
    }


def smoke_checkpoint_roundtrip() -> None:
    """Budget-exhaust the product scenario, resume it, and require the
    resumed run to reproduce the verdicts of an unbudgeted reference run
    (docs/robustness.md; the fine-grained differential lives in
    tests/test_checkpoint.py::TestCliDifferential)."""

    def run_cli(extra: list[str], cwd: Path) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", "scenario", "product", *extra],
            cwd=cwd, env=env, capture_output=True, text=True,
        )

    def verdicts(proc: subprocess.CompletedProcess) -> list[str]:
        return [line for line in proc.stdout.splitlines()
                if line.startswith(("HOLDS [", "FAILS ["))]

    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        tmpdir = Path(tmp)
        ckpt = tmpdir / "product.ckpt"
        budgeted = run_cli(["--deadline", "0", "--checkpoint", str(ckpt)], tmpdir)
        if budgeted.returncode != 0 or "status=unknown" not in budgeted.stdout:
            raise SystemExit(
                "checkpoint smoke: budget-exhausted run did not report UNKNOWN "
                f"(exit {budgeted.returncode}):\n{budgeted.stdout}{budgeted.stderr}"
            )
        if verdicts(budgeted):
            raise SystemExit(
                "checkpoint smoke: budget-exhausted run leaked a verdict:\n"
                + budgeted.stdout
            )
        # The UNKNOWN names the manifest question that ran out, not the
        # exploration behind it.
        if not any(
            line.startswith(("[UNKNOWN] reachable-invariant:", "[UNKNOWN] leadsto"))
            for line in budgeted.stdout.splitlines()
        ):
            raise SystemExit(
                "checkpoint smoke: the UNKNOWN line names no manifest "
                "question:\n" + budgeted.stdout
            )
        if not ckpt.exists():
            raise SystemExit(f"checkpoint smoke: no checkpoint at {ckpt}")
        resumed = run_cli(["--resume", str(ckpt)], tmpdir)
        reference = run_cli([], tmpdir)
        if resumed.returncode != 0 or reference.returncode != 0:
            raise SystemExit(
                "checkpoint smoke: resumed/reference run failed "
                f"(exit {resumed.returncode}/{reference.returncode}):\n"
                f"{resumed.stdout}{resumed.stderr}{reference.stderr}"
            )
        if not verdicts(reference) or verdicts(resumed) != verdicts(reference):
            raise SystemExit(
                "checkpoint smoke: resumed verdicts differ from reference:\n"
                f"resumed:   {verdicts(resumed)}\n"
                f"reference: {verdicts(reference)}"
            )
    print("checkpoint/resume round-trip smoke ok (product scenario)")


def smoke_obs_artifacts() -> None:
    """One instrumented scenario run; leaves the JSONL trace and run
    manifest at the repo root (``obs-smoke-trace.jsonl`` /
    ``obs-smoke-manifest.json``) for CI to upload as workflow artifacts,
    and fails if either is missing or structurally empty."""
    trace = REPO_ROOT / "obs-smoke-trace.jsonl"
    manifest_path = REPO_ROOT / "obs-smoke-manifest.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "scenario", "product", "--prove",
         "--trace", str(trace), "--metrics-out", str(manifest_path)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(
            "obs smoke: instrumented scenario failed "
            f"(exit {proc.returncode}):\n{proc.stdout}{proc.stderr}"
        )
    manifest = json.loads(manifest_path.read_text())
    for key in ("schema", "phases", "counters", "verdicts"):
        if key not in manifest:
            raise SystemExit(f"obs smoke: manifest lacks {key!r}")
    if manifest["counters"].get("sparse.bfs.levels", 0) <= 0:
        raise SystemExit("obs smoke: manifest recorded no BFS levels")
    span_rows = sum(
        1 for line in trace.read_text().splitlines()
        if line.strip() and json.loads(line).get("ev") == "span"
    )
    if span_rows == 0:
        raise SystemExit("obs smoke: trace holds no span events")
    print(f"obs telemetry smoke ok ({trace.name}: {span_rows} spans, "
          f"{manifest_path.name})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="output JSON path (default: stdout)")
    parser.add_argument("--quick", action="store_true",
                        help="only the leads-to engine, certificate-check "
                             "and cold-start benchmarks")
    parser.add_argument("--smoke", action="store_true",
                        help="run the sparse scenario benchmarks with timing "
                             "disabled; fail on crash, not on regression")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two recorded snapshots and exit")
    parser.add_argument("--github-summary", action="store_true",
                        help="with --diff: emit a GitHub-flavored Markdown "
                             "table (for $GITHUB_STEP_SUMMARY)")
    parser.add_argument("extra", nargs="*",
                        help="extra args forwarded to pytest (after --)")
    args = parser.parse_args(argv)

    if args.github_summary and not args.diff:
        parser.error("--github-summary requires --diff OLD NEW")

    if args.diff:
        diff(*args.diff, github=args.github_summary)
        old_doc = json.loads(args.diff[0].read_text())
        new_doc = json.loads(args.diff[1].read_text())
        diff_machines(old_doc, new_doc, github=args.github_summary)
        diff_manifests(old_doc, new_doc, github=args.github_summary)
        return 0

    if args.smoke:
        cmd = [
            sys.executable, "-m", "pytest",
            str(BENCH_DIR / "bench_sparse.py"),
            str(BENCH_DIR / "bench_proof_check.py"),
            str(BENCH_DIR / "bench_obs.py"),
            str(BENCH_DIR / "bench_compose.py"),
            str(BENCH_DIR / "bench_generators.py"),
            str(BENCH_DIR / "bench_service.py"),
            "--benchmark-disable", "-q", *args.extra,
        ]
        proc = subprocess.run(cmd, cwd=REPO_ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"sparse benchmark smoke failed (exit {proc.returncode})")
        smoke_checkpoint_roundtrip()
        smoke_obs_artifacts()
        print("sparse benchmark smoke ok")
        return 0

    targets = (
        [
            str(BENCH_DIR / "bench_leadsto_engine.py"),
            str(BENCH_DIR / "bench_proof_check.py"),
            str(BENCH_DIR / "bench_cold_start.py"),
        ]
        if args.quick
        else [str(BENCH_DIR)]
    )
    medians, stats = run_benchmarks(targets, args.extra)
    doc = {
        "note": "median seconds per benchmark id, with rounds, min and "
                "iqr seconds under stats; see benchmarks/record.py",
        "medians": medians,
        "stats": stats,
        "machine": machine_fingerprint(),
    }
    manifest = capture_reference_manifest()
    if manifest is not None:
        doc["manifest"] = manifest
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
        print(f"wrote {len(medians)} medians to {args.out}")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
