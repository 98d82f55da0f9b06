"""Benchmark entry point for the check / prove / serve workloads.

    python3 perfbench/run.py --workload check --seed 1 --seconds 20 --trace 0

Run from the repository root.  Runs the workload in a fresh subprocess
(``workload.py``) with numeric thread pools pinned to one thread, checks
that it reports exactly the metrics ``BENCHMARK.json`` names, and prints
one JSON object as the last line of standard output: ``{"correct",
"attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its
per-layer metrics, after a table of them.  ``--smoke`` sends a few
requests per class, for ``selftest.py``.  See ``README.md`` here.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("check", "prove", "serve")
CHILD_TIMEOUT_S = 150
PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def bench_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_FAULTS", None)
    return env


def print_table(workload: str, metrics: dict, bases: dict) -> None:
    times = [name for name in metrics if name.endswith("_ms")]
    total = sum(metrics[name]["value"] for name in times)
    print(f"per-layer breakdown, workload {workload} (share = of request self time)")
    print(f"{'metric':32} {'value':>14} {'unit':6} {'share':>7}  base")
    for name, m in metrics.items():
        share = f"{100.0 * m['value'] / total:6.1f}%" if name in times and total else ""
        base = bases.get(name, bases["_ms"] if name in times else "")
        print(f"{name:32} {m['value']:14.4f} {m['unit']:6} {share:>7}  {base}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "api.py").is_file():
        print(
            f"perfbench: no program source at {SRC / 'repro'}; "
            "run from the root of a full source checkout",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = bench_env()

    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    try:
        child = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
            timeout=CHILD_TIMEOUT_S, text=True,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        print(f"perfbench: workload failed (exit {child.returncode})", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        print(
            f"perfbench: metrics {sorted(got.items())} do not match "
            f"BENCHMARK.json {sorted(expected.items())}",
            file=sys.stderr,
        )
        return 1
    metrics = {name: metrics[name] for name in expected}
    if args.trace:
        print_table(args.workload, metrics, result["bases"])
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
