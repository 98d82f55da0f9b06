"""Regenerate ``corpus.json``: every request the benchmark sends, with its answer key.

    PYTHONPATH=src python3 perfbench/make_corpus.py

Run from the repository root; it decides and times every entry, which
takes a few minutes.  Sources:

* ``check``: programs from the seeded DSL fuzzer (``repro.gen.fuzz``)
  and fan-out / mesh family instances (``repro.gen.families``), rendered
  to DSL text with ``pretty_program``.  Fuzz programs are asked
  ``init ~> q`` under weak and strong fairness (``p`` is the initial
  condition, so every ``p``-state is reachable) and ``invariant p``;
  family instances are asked their manifest rows, whose ``ExpectedCheck``
  verdicts are the key.  A question is kept only when the dense and the
  sparse tier give the same verdict here, so no answer depends on which
  judgment a tier decides.
* ``serve``: more fuzz questions, one per distinct service request key.
* ``prove``: builder parameters for pipelines, pipeline-allocator
  products under strong fairness, hypercube philosophers and
  heterogeneous compose stacks; every one must certify.

``cost_ms`` is one measured request time; decks use it only to sort
entries into size strata.
"""

from __future__ import annotations

import itertools
import json
import time
from math import prod

import repro.semantics.sparse as sparse_pkg
from repro.api import verify
from repro.dsl import parse_program, parse_property, pretty_program
from repro.errors import PropertyError
from repro.gen.families import build_fanout, build_mesh
from repro.gen.fuzz import FuzzConfig, fuzz_case
from repro.semantics.sparse.checkpoint import program_digest
from repro.service.protocol import normalize_request, request_key

from decks import CORPUS
from workload import ProveWorkload, build_system

#: Largest dense-tier family instance: about half a second and 100 MB.
DENSE_MAX_STATES = 65_536
DENSE_MIN_STATES = 200
#: Above-threshold family instances slower than this are left out.
SPARSE_MAX_MS = 150.0
FAMILY_INSTANCES = 24
CHECK_FUZZ = {
    "s": (FuzzConfig(), range(0, 120)),
    "m": (FuzzConfig(min_vars=4, max_vars=5, max_commands=6), range(1000, 1080)),
    "l": (
        FuzzConfig(min_vars=5, max_vars=7, min_commands=3, max_commands=7),
        range(2000, 2040),
    ),
}
SERVE_FUZZ = {
    "s": (FuzzConfig(), range(10_000, 10_160)),
    "m": (FuzzConfig(min_vars=5, max_vars=6, max_commands=6), range(11_000, 11_060)),
    # Larger programs: the source of the coalesced pairs' slow requests.
    "l": (
        FuzzConfig(min_vars=7, max_vars=8, min_commands=4, max_commands=8),
        range(12_000, 12_100),
    ),
}


def timed(fn):
    start = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - start) * 1000.0


def ask(text: str, prop: str, fairness: str, *, sparse: bool = False):
    """One check request as the benchmark sends it: ``(holds, ms)``.

    ``sparse=True`` forces the sparse tier by lowering its threshold.
    """
    def run():
        program = parse_program(text)
        return verify(program, parse_property(prop, program), fairness=fairness).holds

    old = sparse_pkg.SPARSE_THRESHOLD
    if sparse:
        sparse_pkg.SPARSE_THRESHOLD = 0
    try:
        return timed(run)
    finally:
        sparse_pkg.SPARSE_THRESHOLD = old


def decide(text: str, prop: str, fairness: str, states: int):
    """``(verdict, ms)`` when every tier that can run agrees, else None."""
    holds, ms = ask(text, prop, fairness)
    if holds is None:
        return None
    if states <= sparse_pkg.SPARSE_THRESHOLD:
        if ask(text, prop, fairness, sparse=True)[0] is not holds:
            return None
    return holds, ms


def fuzz_questions(seed: int, config: FuzzConfig):
    case = fuzz_case(seed, config)
    text = pretty_program(case.program)
    program = parse_program(text)
    try:
        init = str(program.init.as_expr())
    except PropertyError:
        init = "true"
    p = " /\\ ".join(case.p_conjuncts)
    q = " /\\ ".join(case.q_conjuncts)
    questions = [
        ("invariant", f"invariant {p}", "weak"),
        ("leadsto", f"{init} ~> {q}", "weak"),
        ("leadsto", f"{init} ~> {q}", "strong"),
    ]
    return text, int(program.space.size), questions


def _spread(candidates: list, n: int) -> list:
    """Up to ``n`` candidates evenly spaced over their size order."""
    candidates = sorted(candidates, key=lambda c: c[0])
    if len(candidates) <= n:
        return candidates
    idx = sorted({round(k * (len(candidates) - 1) / (n - 1)) for k in range(n)})
    return [candidates[i] for i in idx]


def family_scenarios():
    """``(class, scenario)`` for the fan-out and mesh instances used."""
    threshold = sparse_pkg.SPARSE_THRESHOLD
    fan = {"dense": [], "sparse": []}
    for layers in range(1, 5):
        for widths in itertools.product((1, 2, 3), repeat=layers):
            for total in (1, 2, 3):
                caps = [
                    total + (layer + slot) % 2
                    for layer, width in enumerate(widths)
                    for slot in range(width)
                ]
                states = (total + 1) ** 2 * prod(c + 1 for c in caps)
                if DENSE_MIN_STATES <= states <= DENSE_MAX_STATES:
                    fan["dense"].append((states, widths, total))
                elif states > threshold and len(caps) <= 10:
                    fan["sparse"].append((states, widths, total))
    mesh = {"dense": [], "sparse": []}
    for pools, clients, total in itertools.product((2, 3, 4), range(1, 9), (1, 2, 3)):
        states = (total + 1) ** (pools + 2 * clients)
        if DENSE_MIN_STATES <= states <= DENSE_MAX_STATES:
            mesh["dense"].append((states, pools, clients, total))
        elif states > threshold and pools + 2 * clients <= 16 and total <= 2:
            mesh["sparse"].append((states, pools, clients, total))
    for cls in ("dense", "sparse"):
        for _, widths, total in _spread(fan[cls], FAMILY_INSTANCES):
            yield cls, build_fanout(widths, total)
        for _, pools, clients, total in _spread(mesh[cls], FAMILY_INSTANCES // 2):
            yield cls, build_mesh(pools, clients, total)


def manifest_questions(scenario):
    for row in scenario.checks:
        if row.kind == "invariant":
            yield "invariant", f"invariant {row.pred.as_expr()}", "weak", row.expected
            continue
        text = f"{row.prop.p.as_expr()} ~> {row.prop.q.as_expr()}"
        yield "leadsto", text, "weak", row.expected
        if row.expected:  # holds under weak fairness, so under strong too
            yield "leadsto", text, "strong", True


def check_entries(programs: dict) -> list:
    out = []
    for tag, (config, seeds) in CHECK_FUZZ.items():
        for seed in seeds:
            text, states, questions = fuzz_questions(seed, config)
            pid = f"fuzz-{tag}{seed}"
            for i, (kind, prop, fairness) in enumerate(questions):
                got = decide(text, prop, fairness, states)
                if got is None:
                    continue
                programs[pid] = text
                out.append(_entry(pid, i, "fuzz", kind, prop, fairness, states, *got))
    for cls, sc in family_scenarios():
        text = pretty_program(sc.program)
        program = parse_program(text)
        states = int(program.space.size)
        if "initially" not in text or states != sc.program.space.size:
            print(f"skip {sc.describe()}: does not round-trip")
            continue
        pid = f"{sc.family}-" + "-".join(
            "x".join(map(str, v)) if isinstance(v, tuple) else str(v)
            for v in sc.params.values()
        )
        for i, (kind, prop, fairness, expected) in enumerate(manifest_questions(sc)):
            got = decide(text, prop, fairness, states)
            if got is None or got[0] is not expected:
                print(f"drop {pid} {prop!r} [{fairness}]: tiers or manifest disagree")
                continue
            if cls == "sparse" and got[1] > SPARSE_MAX_MS:
                continue
            programs[pid] = text
            out.append(_entry(pid, i, cls, kind, prop, fairness, states, *got))
        print(f"{pid}: {states} states")
    return out


def _entry(pid, i, cls, kind, prop, fairness, states, expected, ms) -> dict:
    return {
        "id": f"{pid}/{i}",
        "class": cls,
        "program": pid,
        "kind": kind,
        "property": prop,
        "fairness": fairness,
        "states": states,
        "expected": expected,
        "cost_ms": round(ms, 3),
    }


def serve_entries() -> list:
    out, keys = [], set()
    for tag, (config, seeds) in SERVE_FUZZ.items():
        for seed in seeds:
            text, states, questions = fuzz_questions(seed, config)
            digest = program_digest(parse_program(text))
            for i, (kind, prop, fairness) in enumerate(questions):
                doc = {"program": text, "property": prop, "fairness": fairness}
                key = request_key(digest, normalize_request(doc))
                got = None if key in keys else decide(text, prop, fairness, states)
                if got is None:
                    continue
                keys.add(key)
                out.append(
                    dict(
                        doc,
                        id=f"serve-{tag}{seed}/{i}",
                        key=key,
                        kind=kind,
                        states=states,
                        expected=got[0],
                        cost_ms=round(got[1], 3),
                    )
                )
    return out


def prove_entries() -> list:
    params = (
        [{"kind": "pipeline", "stages": s} for s in range(8, 15)]
        + [{"kind": "product", "stages": s} for s in range(8, 17)]
        + [{"kind": "philosophers", "dim": 3, "node": i} for i in range(8)]
        + [{"kind": "compose", "stages": s} for s in range(10, 51)]
    )
    prover = ProveWorkload(None)
    out = []
    for e in params:
        e["id"] = "-".join(str(v) for v in e.values())
        program, _, _ = build_system(e)
        if e["kind"] != "compose" and not sparse_pkg.sparse_enabled(program.space):
            raise SystemExit(f"{e['id']} routes dense; prove keeps to the sparse tier")
        got, ms = timed(lambda: prover.request(e))
        if got is not True:
            raise SystemExit(f"{e['id']} did not certify: {got!r}")
        out.append(dict(e, expected=True, cost_ms=round(ms, 3)))
        print(f"{e['id']}: {ms:.1f} ms")
    return out


def main() -> int:
    ask("program W\ndeclare shared w : int[0..1]\nassign\n  fair f: w := 1\nend",
        "true ~> w = 1", "weak")
    programs: dict = {}
    corpus = {
        "schema": "perfbench-corpus/1",
        "check": check_entries(programs),
        "serve": serve_entries(),
        "prove": prove_entries(),
        "programs": programs,
    }
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for section in ("check", "serve", "prove"):
        entries = corpus[section]
        holds = sum(e["expected"] for e in entries)
        print(f"{section}: {len(entries)} entries, {holds} hold, {len(entries) - holds} fail")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
