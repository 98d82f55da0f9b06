"""Golden pin of the DSL front end: text in, identity and errors out.

``tests/golden/dsl_frontend.json`` records what ``parse_program`` and
``parse_property`` make of:

- every program and property text of ``perfbench/corpus.json`` and of
  the ``tests/corpus/`` repros: the ``program_digest`` of each program
  (keyed by the SHA-256 of its text, first 16 hex digits) and the
  ``describe()`` of each property, or of each repro's ``p``/``q``
  conjunct texts as a predicate;
- a seeded set of one-token deletions, duplications and swaps of fuzz
  and family texts: the exact error each one raises (type, message,
  line and column), or the digest of what it parses to.

The lexer, parser and elaborator may be rewritten for speed, but must
reproduce this file byte for byte.  Regenerate (only for a deliberate,
reviewed change to the language or its diagnostics) with::

    PYTHONPATH=src python tests/test_dsl_frontend_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.dsl import parse_program, parse_property
from repro.dsl.lexer import tokenize
from repro.errors import ReproError
from repro.gen.fuzz import predicate_from_conjuncts
from repro.gen.shrink import load_corpus_entry
from repro.semantics.sparse.checkpoint import program_digest

HERE = Path(__file__).parent
GOLDEN = HERE / "golden" / "dsl_frontend.json"
PERFBENCH_CORPUS = HERE.parent / "perfbench" / "corpus.json"
REPROS = sorted((HERE / "corpus").glob("*.json"))

MUTATION_SEED = 11
#: (program-name prefix, programs drawn, mutations of each program and of
#: its first property).
MUTATION_PLAN = (("fuzz-", 24, 5), ("fanout-", 6, 5), ("mesh-", 4, 5))
MUTATION_OPS = ("delete", "duplicate", "swap")


def _key(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _load_perfbench() -> tuple[dict[str, str], dict[str, list[str]]]:
    """Program texts by name, and each program's distinct property texts."""
    corpus = json.loads(PERFBENCH_CORPUS.read_text(encoding="utf-8"))
    programs = dict(corpus["programs"])
    properties: dict[str, list[str]] = {}
    pairs = [(e["program"], e["property"]) for e in corpus["check"]]
    for entry in corpus["serve"]:
        name = f"serve:{_key(entry['program'])}"
        programs[name] = entry["program"]
        pairs.append((name, entry["property"]))
    for name, text in dict.fromkeys(pairs):  # distinct pairs, in corpus order
        properties.setdefault(name, []).append(text)
    return programs, properties


def _spans(source: str) -> list[tuple[int, int]]:
    """(start, end) character offsets of each token, end of input excluded."""
    starts = [0]
    for line in source.split("\n"):
        starts.append(starts[-1] + len(line) + 1)
    offsets = [(starts[t.line - 1] + t.column - 1, t.text) for t in tokenize(source)]
    return [(start, start + len(text)) for start, text in offsets[:-1]]


def _mutate(source: str, op: str, index: int) -> str:
    spans = _spans(source)
    s, e = spans[index]
    if op == "delete":
        return source[:s] + source[e:]
    if op == "duplicate":
        return source[:e] + " " + source[s:e] + source[e:]
    s2, e2 = spans[index + 1]
    return source[:s] + source[s2:e2] + source[e:s2] + source[s:e] + source[e2:]


def _mutations() -> list[tuple[str, str, str, int]]:
    """The seeded mutation plan: (program name, "program" or "property"
    (its first property), edit, token index)."""
    programs, properties = _load_perfbench()
    rng = random.Random(MUTATION_SEED)
    plan = []
    for prefix, count, per_text in MUTATION_PLAN:
        names = sorted(n for n in programs if n.startswith(prefix))
        for name in rng.sample(names, count):
            targets = {"program": programs[name]}
            if properties.get(name):
                targets["property"] = properties[name][0]
            for target, text in targets.items():
                tokens = len(_spans(text))
                for _ in range(per_text):
                    op = rng.choice(MUTATION_OPS)
                    index = rng.randrange(tokens - (op == "swap"))
                    plan.append((name, target, op, index))
    return plan


def _mutation_outcome(name, target, op, index, programs, properties) -> str:
    """``ok`` and the digest or printed property, or the error raised."""
    try:
        if target == "program":
            text = program_digest(parse_program(_mutate(programs[name], op, index)))
        else:
            mutated = _mutate(properties[name][0], op, index)
            text = parse_property(mutated, parse_program(programs[name])).describe()
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"ok {text}"


def _repro_record(path: Path) -> dict:
    entry = load_corpus_entry(path)
    program = parse_program(entry["program"])
    return {
        "digest": program_digest(program),
        "predicates": [
            predicate_from_conjuncts(program, entry[side]).describe()
            for side in ("p", "q")
        ],
    }


def collect_programs() -> dict:
    programs, properties = _load_perfbench()
    out = {}
    for name in sorted(programs):
        program = parse_program(programs[name])
        out[_key(programs[name])] = {
            "digest": program_digest(program),
            "properties": [
                parse_property(text, program).describe()
                for text in properties.get(name, [])
            ],
        }
    return out


def collect_errors() -> dict[str, str]:
    """Outcome of each planned mutation, keyed "<seq> <name> <target> <op> <index>"."""
    programs, properties = _load_perfbench()
    return {
        f"{seq:03d} {' '.join(map(str, step))}": _mutation_outcome(
            *step, programs, properties
        )
        for seq, step in enumerate(_mutations())
    }


def collect() -> dict:
    return {
        "perfbench": collect_programs(),
        "repros": {p.stem: _repro_record(p) for p in REPROS},
        "mutations": collect_errors(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_perfbench_programs_and_properties(golden):
    got = collect_programs()
    assert sorted(got) == sorted(golden["perfbench"])
    for key, record in got.items():
        assert record == golden["perfbench"][key], key


@pytest.mark.parametrize("path", REPROS, ids=lambda p: p.stem)
def test_repro_digest_and_predicates(golden, path):
    assert _repro_record(path) == golden["repros"][path.stem]


def test_mutated_texts_raise_the_recorded_errors(golden):
    recorded = golden["mutations"]
    assert len(recorded) >= 300
    assert sum(o.startswith("DslSyntaxError") for o in recorded.values()) >= 150
    got = collect_errors()
    assert list(got) == list(recorded)
    for step, outcome in got.items():
        assert outcome == recorded[step], step


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_dsl_frontend_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
