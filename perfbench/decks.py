"""Seeded request decks drawn from the committed corpus.

``corpus.json`` (written by ``make_corpus.py``) holds every request the
benchmark can send together with its expected verdict: the answer key.
A deck is one pass of requests and a pure function of the run's seed.
Within each request class the corpus is sorted by measured cost and cut
into as many equal-count strata as the class has picks; each stratum
gives one entry, so every seed gets the same spread of sizes and the
latency distribution stays continuous.  The costlier half of the strata
give their costliest entry, the same for every seed, so the slow half
that sets throughput, p90 and peak memory does not move with the seed;
the cheaper half give a random entry, so seeds differ in instances.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus.json"

#: ``check`` requests per pass, by class.  The many small fuzz programs
#: put the median there; dense family instances (dense tables and
#: leads-to analysis) fill the tail that sets p90 and most of the time;
#: above-threshold family instances run on the sparse tier.
CHECK_MIX = {"fuzz": 96, "dense": 32, "sparse": 32}
#: ``prove`` requests per pass, by kind.  Compose stacks are the slowest
#: kind; with seven, the four costlier strata (fixed for every seed) are
#: the deck's four slowest requests, which set p90.
PROVE_MIX = {"pipeline": 8, "product": 7, "philosophers": 8, "compose": 7}
#: ``serve``, per client thread and pass: first-seen keys (worker plus
#: cache write) and repeats of keys the thread already sent (cache read);
#: plus pairs that both threads send at once after a barrier (one
#: computes, the other is coalesced onto its flight).
SERVE_CLIENTS = 2
SERVE_COLD = 108
SERVE_REPEAT = 192
SERVE_PAIRS = 15
#: A coalesced pair needs a computation this long (ms, measured in
#: process) for the second client to arrive while the first is in flight.
PAIR_MIN_MS = 20.0
#: ``--smoke``: requests per class, and per kind and thread for serve.
SMOKE = 2


def load_corpus() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def _ranked(pool: list) -> list:
    return sorted(pool, key=lambda e: (e["cost_ms"], e["id"]))


def _stratum(ranked: list, k: int, n: int) -> tuple:
    """Index range of the ``k``-th of ``n`` equal-count strata of ``ranked``."""
    lo = k * len(ranked) // n
    return lo, max(lo + 1, (k + 1) * len(ranked) // n)


def _stratified(rng: random.Random, ranked: list, n: int) -> list:
    """A random entry from each of ``n`` equal-count strata of ``ranked``."""
    return [ranked[rng.randrange(*_stratum(ranked, k, n))] for k in range(n)]


def _pick(rng: random.Random, pool: list, n: int) -> list:
    """One entry per stratum: fixed (the costliest) in the costlier half
    of the strata, random in the cheaper half."""
    ranked = _ranked(pool)
    picks = _stratified(rng, ranked, n)
    for k in range(n // 2, n):
        picks[k] = ranked[_stratum(ranked, k, n)[1] - 1]
    return picks


def _interleaved(requests: list) -> list:
    """``requests`` (one per class and stratum, in that order) shuffled by
    a permutation that is the same for every seed.

    Dense tables pile up over a pass (README.md), so the peak memory of
    the costliest request depends on which requests ran before it; with
    every stratum's request in the same place for every seed, the
    costlier half keeps its places.
    """
    places = list(range(len(requests)))
    random.Random(0).shuffle(places)
    return [requests[i] for i in places]


def _by(entries: list, key: str) -> dict:
    out: dict = {}
    for e in entries:
        out.setdefault(e[key], []).append(e)
    return out


def check_deck(corpus: dict, seed: int, smoke: bool = False) -> list:
    """One pass of ``check`` requests."""
    rng = random.Random(seed)
    classes = _by(corpus["check"], "class")
    requests = []
    for cls, n in CHECK_MIX.items():
        requests += _pick(rng, classes[cls], SMOKE if smoke else n)
    programs = corpus["programs"]
    return [dict(e, program=programs[e["program"]]) for e in _interleaved(requests)]


def prove_deck(corpus: dict, seed: int, smoke: bool = False) -> list:
    """One pass of ``prove`` requests."""
    rng = random.Random(seed)
    kinds = _by(corpus["prove"], "kind")
    requests = []
    for kind, n in PROVE_MIX.items():
        requests += _pick(rng, kinds[kind], SMOKE if smoke else n)
    return _interleaved(requests)


def _client_plan(rng: random.Random, cold: list, pairs: list, repeats: int) -> list:
    """One client's pass: its first-seen keys, repeats of keys it has
    already sent, and the shared pairs at evenly spaced points."""
    kinds = ["cold"] * len(cold) + ["repeat"] * repeats
    rng.shuffle(kinds)
    first = kinds.index("cold")
    kinds[0], kinds[first] = kinds[first], kinds[0]
    pair_at = {(j + 1) * len(kinds) // (len(pairs) + 1): e for j, e in enumerate(pairs)}
    fresh = iter(cold)
    sent: list = []
    plan = []
    for pos, kind in enumerate(kinds):
        if pos in pair_at:
            plan.append(dict(pair_at[pos], kind="pair"))
            sent.append(pair_at[pos])
        entry = next(fresh) if kind == "cold" else rng.choice(sent)
        if kind == "cold":
            sent.append(entry)
        plan.append(dict(entry, kind=kind))
    return plan


def serve_deck(corpus: dict, seed: int, smoke: bool = False) -> list:
    """One pass of ``serve`` requests: one list per client thread."""
    rng = random.Random(seed)
    ranked = _ranked(corpus["serve"])
    light = [e for e in ranked if e["cost_ms"] < PAIR_MIN_MS]
    heavy = [e for e in ranked if e["cost_ms"] >= PAIR_MIN_MS]
    cold_n, repeat_n, pair_n = (SMOKE, SMOKE, 1) if smoke else (
        SERVE_COLD, SERVE_REPEAT, SERVE_PAIRS
    )
    cold = _stratified(rng, light, cold_n * SERVE_CLIENTS)
    # The costliest pair program is in every deck: it sets the worker's
    # peak memory.
    pairs = _pick(rng, heavy, pair_n)
    chosen = {e["key"] for e in cold + pairs}
    if len(chosen) != len(cold) + len(pairs):
        raise ValueError("serve corpus too small for distinct request keys")
    rng.shuffle(cold)
    return [
        _client_plan(rng, cold[t::SERVE_CLIENTS], pairs, repeat_n)
        for t in range(SERVE_CLIENTS)
    ]


BUILDERS = {"check": check_deck, "prove": prove_deck, "serve": serve_deck}
