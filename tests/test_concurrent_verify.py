"""Concurrency contracts of the ``verify()`` facade and the subspace cache.

The certification service runs ``verify()`` from many threads; these
tests pin the two properties that makes that safe without a service in
the loop:

- the weak per-program subspace cache is **single-flight**: N
  concurrent callers of a sparse check share ONE exploration (the
  first runs the BFS under the per-program lock, the rest find the
  published result), and all N agree on the verdict;
- a deadline that expires yields a structured UNKNOWN
  (``holds is None``, ``bool()`` raises) — degradation can slow an
  answer down but never flip it.
"""

from __future__ import annotations

import threading

import pytest

from repro.api import verify
from repro.dsl import parse_program, parse_property
from repro.semantics.budget import Budget
from repro.semantics.sparse import explorer

COUNTER = """
program counter
declare
  local c : int[0..7]
initially
  c = 0
assign
  fair step: c < 7 -> c := c + 1
end
"""


@pytest.fixture()
def counter():
    return parse_program(COUNTER)


def test_concurrent_sparse_verify_explores_once(counter, monkeypatch):
    prop = parse_property("true ~> c = 7", counter)
    calls = []
    real_explore = explorer.explore

    def counting_explore(program, **kwargs):
        calls.append(threading.get_ident())
        return real_explore(program, **kwargs)

    monkeypatch.setattr(explorer, "explore", counting_explore)

    barrier = threading.Barrier(8)
    verdicts = []
    errors = []
    lock = threading.Lock()

    def call():
        barrier.wait()
        try:
            v = verify(counter, prop, tier="sparse")
        except Exception as exc:  # pragma: no cover - the failure mode
            with lock:
                errors.append(exc)
            return
        with lock:
            verdicts.append(v)

    threads = [threading.Thread(target=call) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    assert len(verdicts) == 8
    assert all(v.holds is True and v.tier == "sparse" for v in verdicts)
    # Single-flight: one exploration served every caller.
    assert len(calls) == 1


def test_concurrent_callers_share_published_subspace(counter):
    # After any single verify, the weak cache holds the subspace; every
    # concurrent reader must get the *same object*, never a re-explore.
    verify(counter, parse_property("c = 0 ~> c = 7", counter), tier="sparse")
    seen = set()
    lock = threading.Lock()
    barrier = threading.Barrier(6)

    def reader():
        barrier.wait()
        sub = explorer.reachable_subspace(counter)
        with lock:
            seen.add(id(sub))

    threads = [threading.Thread(target=reader) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(seen) == 1


def test_deadline_exceeded_is_unknown_not_a_verdict(counter):
    prop = parse_property("true ~> c = 7", counter)
    v = verify(counter, prop, tier="sparse", budget=Budget(deadline=0))
    assert v.holds is None
    assert v.partial is not None
    assert v.partial.status == "unknown"
    assert v.partial.reason == "deadline"
    with pytest.raises(TypeError):
        bool(v)  # UNKNOWN must never be readable as FAILS
    with pytest.raises(TypeError):
        bool(v.partial)


def test_deadline_under_concurrency_never_flips_a_verdict(monkeypatch):
    # Mixed load: some threads run with a hopeless deadline, some with
    # none.  Decided verdicts must all agree; exhausted ones must all be
    # UNKNOWN.  A fresh program per thread-set keeps the cache cold so
    # the deadline threads genuinely race the explorers.
    program = parse_program(COUNTER.replace("program counter", "program c2"))
    prop = parse_property("true ~> c = 7", program)
    outcomes = []
    lock = threading.Lock()
    barrier = threading.Barrier(8)

    def call(budget):
        barrier.wait()
        v = verify(program, prop, tier="sparse", budget=budget)
        with lock:
            outcomes.append(v)

    budgets = [None, Budget(deadline=0)] * 4
    threads = [threading.Thread(target=call, args=(b,)) for b in budgets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert len(outcomes) == 8
    decided = [v for v in outcomes if v.holds is not None]
    unknown = [v for v in outcomes if v.holds is None]
    # The unbudgeted callers always decide; a zero-deadline caller may
    # ride a winner's published subspace (decided) or exhaust (UNKNOWN).
    assert len(decided) >= 4
    assert all(v.holds is True for v in decided)
    for v in unknown:
        assert v.partial is not None and v.partial.status == "unknown"
