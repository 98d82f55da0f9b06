"""Sparse-tier benchmarks: exploration and checking of composition stacks
whose encoded spaces the dense tier cannot touch.

Assertions pin the scenario verdicts (delivery holds, recycling fails,
ring liveness holds), so a semantic regression fails the bench run, not
just the timing.  Fresh systems are built per measurement round so the
subspace/backend caches don't turn the timings into cache-hit noise.
"""

import pytest

from repro.semantics.checker import check_reachable_invariant
from repro.semantics.leadsto import check_leadsto
from repro.semantics.sparse.explorer import explore, reachable_subspace
from repro.semantics.strong_fairness import check_leadsto_strong
from repro.systems.philosophers import build_philosopher_grid, build_philosopher_ring
from repro.systems.pipeline import build_pipeline_system
from repro.systems.product import build_pipeline_allocator


@pytest.mark.benchmark(group="sparse")
def test_sparse_explore_pipeline(benchmark):
    """BFS interning of the 10-stage pipeline: 1.7e7 encoded → 364 states."""
    pl = build_pipeline_system(10)

    def run():
        return explore(pl.system)

    sub = benchmark(run)
    assert pl.system.space.size == 16_777_216
    assert sub.size == 364


@pytest.mark.benchmark(group="sparse")
def test_sparse_leadsto_pipeline(benchmark):
    """End-to-end delivery check through the sparse tier (cold caches)."""
    def run():
        pl = build_pipeline_system(10)
        d = pl.delivery()
        return check_leadsto(pl.system, d.p, d.q)

    result = benchmark(run)
    assert result.holds and result.witness["tier"] == "sparse"


@pytest.mark.benchmark(group="sparse")
def test_sparse_leadsto_pipeline_warm(benchmark):
    """Repeated checks against one subspace (the proof-chain shape):
    exploration, graph backend, and memoized condensations are all shared."""
    pl = build_pipeline_system(10)
    d, neg = pl.delivery(), pl.no_recycling()
    reachable_subspace(pl.system)  # warm the cache

    def run():
        ok = check_leadsto(pl.system, d.p, d.q)
        bad = check_leadsto(pl.system, neg.p, neg.q)
        return ok, bad

    ok, bad = benchmark(run)
    assert ok.holds and not bad.holds


@pytest.mark.benchmark(group="sparse")
def test_sparse_philosophers_ring10(benchmark):
    """Ring-10 philosophers (4^10 encoded): explore + mutual exclusion."""
    ps = build_philosopher_ring(10)

    def run():
        sub = explore(ps.system)
        res = check_reachable_invariant(ps.system, ps.mutual_exclusion().p)
        return sub, res

    sub, res = benchmark(run)
    assert sub.size == 6726
    assert res.holds


@pytest.mark.benchmark(group="sparse-beyond-dense")
def test_sparse_philosophers_grid4x4(benchmark):
    """Grid 4×4 philosophers: 2^40 ≈ 1.1·10^12 encoded — 17000× the old
    64M dense cap — explored and liveness-checked on the sparse tier."""
    ps = build_philosopher_grid(4, 4)
    lv = ps.liveness(0)

    def run():
        sub = explore(ps.system)
        res = check_leadsto(ps.system, lv.p, lv.q)
        return sub, res

    sub, res = benchmark(run)
    assert ps.system.space.size == 2**40
    assert sub.size == 54368
    assert res.holds and res.witness["tier"] == "sparse"


@pytest.mark.benchmark(group="sparse-beyond-dense")
def test_sparse_product_weak_vs_strong(benchmark):
    """Pipeline × allocator product (4^21 ≈ 4.4·10^12 encoded): the
    composition-induced fairness gap, decided end to end on the sparse
    tier — delivery fails under weak fairness (clients can starve the
    pipeline) and holds under strong."""
    pa = build_pipeline_allocator(16)
    d = pa.delivery()

    def run():
        weak = check_leadsto(pa.system, d.p, d.q)
        strong = check_leadsto_strong(pa.system, d.p, d.q)
        cons = check_reachable_invariant(pa.system, pa.conservation_predicate())
        return weak, strong, cons

    weak, strong, cons = benchmark(run)
    assert pa.system.space.size == 4**21
    assert not weak.holds and weak.witness["tier"] == "sparse"
    assert strong.holds and strong.witness["tier"] == "sparse"
    assert cons.holds
