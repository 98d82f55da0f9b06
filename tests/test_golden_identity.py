"""Golden pins of printed text, program digests and certificate counters.

``Program.describe()`` and :func:`program_digest` feed the service's
cache keys and the identity of ``RPROCKPT1`` checkpoints, and the
compositional kernel keys its memo sets by ``Predicate.describe()``.  Any
drift in how expressions print is therefore a bug, even when every
verdict stays the same.  ``tests/golden/identity.json`` records, for the
``tests/corpus/`` programs, the generated scenario families, and a few
composed stacks:

- the program's ``describe()`` text (in full for the small corpus
  programs, as a SHA-256 otherwise) and its ``program_digest``;
- the ``describe()`` of every stored predicate or property, and of the
  symbolic ``wp`` of those predicates through every command;
- for the stacks, the counters of the compositional re-check.

Regenerate (only for a deliberate, reviewed format change) with::

    PYTHONPATH=src python tests/test_golden_identity.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.dsl import parse_program
from repro.errors import ExpressionError, PropertyError
from repro.gen.families import FAMILIES, build_scenario
from repro.gen.fuzz import predicate_from_conjuncts
from repro.gen.shrink import load_corpus_entry
from repro.semantics.sparse.checkpoint import program_digest

HERE = Path(__file__).parent
GOLDEN = HERE / "golden" / "identity.json"
CORPUS = sorted((HERE / "corpus").glob("*.json"))

#: Family instances: each family's defaults plus the small sweep sizes
#: of ``tests/test_gen_families.py``.
FAMILY_PARAMS = [
    ("torus", {}),
    ("hypercube", {}),
    ("hypercube", {"d": 2}),
    ("regular", {}),
    ("regular", {"n": 8, "d": 3, "seed": 7}),
    ("fanout", {}),
    ("fanout", {"widths": (2, 2), "total": 2}),
    ("mesh", {}),
    ("mesh", {"pools": 2, "clients": 3, "total": 2}),
]
STACK_STAGES = (3, 8)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _wp_text(cmd, pred) -> str:
    # Symbolic wp refuses predicates without an expression form (the
    # philosophers' acyclicity); refusal messages print expressions too,
    # so they are pinned as well.
    try:
        return cmd.wp(pred).describe()
    except (ExpressionError, PropertyError) as exc:
        return f"refused: {exc}"


def _wp_texts(program, preds) -> list[str]:
    return [_wp_text(cmd, p) for p in preds for cmd in program.commands]


def _corpus_record(path: Path) -> dict:
    entry = load_corpus_entry(path)
    program = parse_program(entry["program"])
    p = predicate_from_conjuncts(program, entry["p"])
    q = predicate_from_conjuncts(program, entry["q"])
    return {
        "describe": program.describe(),
        "digest": program_digest(program),
        "predicates": [p.describe(), q.describe()],
        "wp": _wp_texts(program, [p, q]),
    }


def _family_record(family: str, params: dict) -> dict:
    sc = build_scenario(family, **params)
    program = sc.program
    preds = []
    checks = []
    for check in sc.checks:
        if check.prop is not None:
            checks.append(check.prop.describe())
            preds += [check.prop.p, check.prop.q]
        else:
            checks.append(check.pred.describe())
            preds.append(check.pred)
    return {
        "describe_sha256": _sha(program.describe()),
        "describe_len": len(program.describe()),
        "digest": program_digest(program),
        "checks": checks,
        "wp_sha256": _sha("\n".join(_wp_texts(program, preds))),
    }


def _stack_record(stages: int) -> dict:
    from repro.semantics.compositional import check_compositional
    from repro.systems.compose_proof import (
        build_delivery_certificate,
        build_hetero_stack,
    )

    stack = build_hetero_stack(stages)
    res = check_compositional(build_delivery_certificate(stack))
    return {
        "describe_sha256": _sha(stack.system.describe()),
        "digest": program_digest(stack.system),
        "ok": res.ok,
        "obligations_checked": res.obligations_checked,
        "frame_skips": res.frame_skips,
        "footprint_evaluations": res.footprint_evaluations,
        "components_checked": res.components_checked,
    }


def _family_key(family: str, params: dict) -> str:
    return f"{family}({', '.join(f'{k}={v}' for k, v in params.items())})"


def collect() -> dict:
    return {
        "corpus": {p.stem: _corpus_record(p) for p in CORPUS},
        "families": {
            _family_key(f, params): _family_record(f, params)
            for f, params in FAMILY_PARAMS
        },
        "stacks": {str(k): _stack_record(k) for k in STACK_STAGES},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus_and_every_family(golden):
    assert sorted(golden["corpus"]) == [p.stem for p in CORPUS]
    assert {k.split("(")[0] for k in golden["families"]} == set(FAMILIES)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_text_and_digest(golden, path):
    assert _corpus_record(path) == golden["corpus"][path.stem]


@pytest.mark.parametrize(
    "family,params", FAMILY_PARAMS, ids=[_family_key(*fp) for fp in FAMILY_PARAMS]
)
def test_family_text_and_digest(golden, family, params):
    assert _family_record(family, params) == golden["families"][
        _family_key(family, params)
    ]


@pytest.mark.parametrize("stages", STACK_STAGES)
def test_stack_text_digest_and_counters(golden, stages):
    assert _stack_record(stages) == golden["stacks"][str(stages)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_identity.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
