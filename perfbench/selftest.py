"""Self-test of the benchmark: answer key, metric names and determinism.

    python3 perfbench/selftest.py [--seed N] [--quick]

Run from the repository root.  For every workload of BENCHMARK.json a
smoke run (``--smoke``: a few requests per class) with ``--trace 0`` and
with ``--trace 1`` must report exactly the metrics BENCHMARK.json names
(``run.py`` refuses otherwise) and no failed request.  Then two full
traced runs with the same seed must report identical work counts and
no shed request.  ``--quick`` skips the full traced runs.  Exits 1 on
any problem.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Work counts that must repeat exactly for a fixed seed and program.
DETERMINISTIC = (
    "sparse.states",
    "synthesis.levels",
    "synthesis.obligations",
    "compositional.obligations",
    "compositional.frame_skip_ratio",
    "service.cache_hits",
    "service.cache_misses",
    "service.cache_writes",
    "service.coalesced",
    "service.shed",
    "trace.requests",
)


def run(workload: str, seed: int, trace: int, smoke: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", "1", "--trace", str(trace),
    ] + (["--smoke"] if smoke else [])
    out = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, check=True,
        timeout=300, cwd=HERE.parent,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, args.seed, trace, smoke=True)
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} smoke --trace {trace}: {result['failed']} failed")
        if args.quick:
            continue
        first, second = (run(workload, args.seed, 1, smoke=False) for _ in range(2))
        for name in DETERMINISTIC:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload} {name}: {a} then {b}")
        if first["metrics"]["service.shed"]["value"]:
            problems.append(f"{workload}: requests were shed")
        counts = {name: first["metrics"][name]["value"] for name in DETERMINISTIC}
        print(f"{workload}: {counts}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
