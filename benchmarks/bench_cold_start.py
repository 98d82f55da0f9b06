"""Cold start: a fresh interpreter up to ``import repro.api``, and up to a
first dense verdict.

Every ``repro check``/``prove`` run, service worker and library import
starts cold.  The package surfaces are lazy, so ``import repro.api``
loads the facade alone; the modules a question needs load when it is
asked.  The second number keeps that deferred cost in view: import,
parse and a first dense ``verify()``, which must not grow when the
import shrinks.  Each round is one fresh ``python -c`` process, timed
from spawn to exit (interpreter start-up included).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT = "import repro.api"

FIRST_VERDICT = """
from repro.api import verify
from repro.dsl import parse_program, parse_property

program = parse_program(
    "program Ladder\\ndeclare shared x : int[0..3]\\ninitially x = 0\\n"
    "assign\\n  fair up: x < 3 -> x := x + 1\\nend"
)
verdict = verify(program, parse_property("true ~> x = 3", program))
assert verdict.holds is True and verdict.tier == "dense", verdict
"""

ROUNDS = 15


def fresh_run(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


@pytest.mark.parametrize(
    "code", [IMPORT, FIRST_VERDICT], ids=["import_api", "first_dense_verdict"]
)
def test_cold_start(benchmark, code):
    benchmark.pedantic(fresh_run, args=(code,), rounds=ROUNDS, warmup_rounds=1)
