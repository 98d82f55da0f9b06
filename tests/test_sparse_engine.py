"""Sparse-tier mechanics: no full-space allocation, routing, limits, caches.

The headline test patches out every full-space entry point of the dense
engine (decode arrays, successor tables, predicate masks via
``var_arrays``/``index_arrays``, ``TransitionSystem`` construction) and
runs a composed scenario with a 1.6·10⁷-state encoded space end to end
through ``check_leadsto`` — proving structurally that the sparse tier
never allocates an array of length ``space.size``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.semantics.sparse as sparse_pkg
from repro.core.commands import GuardedCommand
from repro.core.domains import IntRange
from repro.core.predicates import ExprPredicate, FnPredicate
from repro.core.program import Program
from repro.core.state import StateSpace
from repro.core.variables import Var
from repro.errors import ExplorationError
from repro.semantics.checker import check_reachable_invariant
from repro.semantics.explorer import reachable_states
from repro.semantics.leadsto import check_leadsto
from repro.semantics.sparse.explorer import (
    explore,
    initial_indices,
    reachable_subspace,
)
from repro.semantics.strong_fairness import check_leadsto_strong
from repro.semantics.transition import TransitionSystem
from repro.systems.allocator import build_allocator_system
from repro.systems.philosophers import build_philosopher_grid
from repro.systems.pipeline import build_pipeline_system
from repro.systems.product import build_pipeline_allocator


# ---------------------------------------------------------------------------
# The acceptance guard: a ≥10⁷-state composition, zero full-space arrays
# ---------------------------------------------------------------------------


class TestNoFullSpaceAllocation:
    @pytest.fixture()
    def dense_paths_forbidden(self, monkeypatch):
        """Make every full-space code path raise loudly."""

        def forbid(name):
            def boom(*args, **kwargs):
                raise AssertionError(
                    f"dense full-space path {name} used on the sparse tier"
                )
            return boom

        monkeypatch.setattr(StateSpace, "var_arrays", forbid("var_arrays"))
        monkeypatch.setattr(StateSpace, "index_arrays", forbid("index_arrays"))
        monkeypatch.setattr(StateSpace, "iter_states", forbid("iter_states"))
        monkeypatch.setattr(
            TransitionSystem, "__init__", forbid("TransitionSystem")
        )

    def test_pipeline_leadsto_end_to_end(self, dense_paths_forbidden):
        pl = build_pipeline_system(10)
        program = pl.system
        assert program.space.size == 16_777_216  # ≥ 10⁷ encoded
        sub = explore(program)
        assert sub.size == 364  # ≤ 10⁵ reachable
        delivery = pl.delivery()
        result = check_leadsto(program, delivery.p, delivery.q)
        assert result.holds
        assert result.witness["tier"] == "sparse"
        negative = pl.no_recycling()
        result = check_leadsto(program, negative.p, negative.q)
        assert not result.holds
        assert result.witness["state"][pl.done] == pl.total

    def test_strong_fairness_and_reachable_invariant(
        self, dense_paths_forbidden
    ):
        pl = build_pipeline_system(10)
        program = pl.system
        delivery = pl.delivery()
        assert check_leadsto_strong(program, delivery.p, delivery.q).holds
        res = check_reachable_invariant(program, pl.conservation_predicate())
        assert res.holds
        assert res.witness["tier"] == "sparse"
        assert "364 reachable states" in res.message

    def test_reachable_states_routes_sparse(self, dense_paths_forbidden):
        pl = build_pipeline_system(10)
        states = reachable_states(pl.system, limit=1_000)
        assert len(states) == 364

    def test_grid_liveness_end_to_end(self, dense_paths_forbidden):
        """The 3×3 philosopher grid (2^21 encoded, forks pinned to the
        canonical orientation) decides liveness through the sparse tier
        with every dense full-space path forbidden — including the
        batched acyclicity predicate, whose `mask_at` must decode only
        frontier-sized edge columns."""
        ps = build_philosopher_grid(3, 3)
        assert ps.system.space.size == 2_097_152
        lv = ps.liveness(0)
        result = check_leadsto(ps.system, lv.p, lv.q)
        assert result.holds
        assert result.witness["tier"] == "sparse"
        mx = check_reachable_invariant(ps.system, ps.mutual_exclusion().p)
        assert mx.holds and mx.witness["tier"] == "sparse"

    def test_product_beyond_old_cap_end_to_end(self, dense_paths_forbidden):
        """The pipeline × allocator product (4^21 ≈ 4.4·10^12 encoded —
        far beyond the old 64M constructor cap) builds and decides the
        weak/strong fairness gap without any full-space array."""
        pa = build_pipeline_allocator(16)
        assert pa.system.space.size == 4**21
        d = pa.delivery()
        weak = check_leadsto(pa.system, d.p, d.q)
        assert not weak.holds and weak.witness["tier"] == "sparse"
        strong = check_leadsto_strong(pa.system, d.p, d.q)
        assert strong.holds and strong.witness["tier"] == "sparse"


# ---------------------------------------------------------------------------
# Routing threshold
# ---------------------------------------------------------------------------


class TestRouting:
    def test_small_space_stays_dense(self):
        a = build_allocator_system(2, total=2)
        result = check_leadsto(a.system, a.token_available().p, a.token_available().q)
        assert result.holds
        assert "tier" not in result.witness

    def test_threshold_monkeypatch_forces_sparse(self, monkeypatch):
        monkeypatch.setattr(sparse_pkg, "SPARSE_THRESHOLD", 1)
        a = build_allocator_system(2, total=2)
        result = check_leadsto(a.system, a.token_available().p, a.token_available().q)
        assert result.holds
        assert result.witness["tier"] == "sparse"
        res = check_reachable_invariant(a.system, a.conservation_predicate())
        assert res.holds and res.witness["tier"] == "sparse"

    def test_dense_fallback_when_sparse_cannot_decide(self, monkeypatch):
        """A routed check whose init the sparse tier can't enumerate must
        fall back to the dense tier instead of raising (pre-sparse
        behaviour)."""
        monkeypatch.setattr(sparse_pkg, "SPARSE_THRESHOLD", 1)
        x = Var.shared("x", IntRange(0, 20))
        inc = GuardedCommand("inc", x.ref() < 20, [(x, x.ref() + 1)])
        prog = Program(
            "FnInit", [x],
            FnPredicate(lambda s: s[x] == 0, "x = 0"),
            [inc], fair=["inc"],
        )
        r = check_leadsto(
            prog, ExprPredicate(x.ref() == 0), ExprPredicate(x.ref() == 20)
        )
        assert r.holds and "tier" not in r.witness
        r2 = check_reachable_invariant(prog, ExprPredicate(x.ref() >= 0))
        assert r2.holds and "tier" not in r2.witness
        assert len(reachable_states(prog)) == 21


# ---------------------------------------------------------------------------
# Initial-state enumeration
# ---------------------------------------------------------------------------


class TestInitialIndices:
    def test_join_limit_raises(self):
        xs = [Var.shared(f"x{k}", IntRange(0, 9)) for k in range(4)]
        prog = Program("Wide", xs, ExprPredicate(xs[0].ref() == 0), [])
        with pytest.raises(ExplorationError, match="join"):
            initial_indices(prog, join_limit=50)

    def test_non_expression_init_raises(self):
        x = Var.shared("x", IntRange(0, 3))
        prog = Program(
            "Fn", [x], FnPredicate(lambda s: s[x] == 0, "x is 0"), []
        )
        with pytest.raises(ExplorationError, match="expression-backed"):
            initial_indices(prog)

    def test_unsatisfiable_init_empty(self):
        x = Var.shared("x", IntRange(0, 3))
        prog = Program(
            "Empty", [x],
            ExprPredicate((x.ref() == 0) & (x.ref() == 1)),
            [],
        )
        assert initial_indices(prog).size == 0
        sub = explore(prog)
        assert sub.size == 0
        # Vacuous leads-to over the empty subspace.
        res = check_leadsto(
            prog,
            ExprPredicate(x.ref() == 0),
            ExprPredicate(x.ref() == 1),
            subspace=reachable_subspace(prog),
        )
        assert res.holds and "no reachable states" in res.message


# ---------------------------------------------------------------------------
# Explorer limits and caching
# ---------------------------------------------------------------------------


class TestExplorer:
    def test_node_limit_raises(self):
        x = Var.shared("x", IntRange(0, 99))
        inc = GuardedCommand("inc", x.ref() < 99, [(x, x.ref() + 1)])
        prog = Program("Long", [x], ExprPredicate(x.ref() == 0), [inc], fair=["inc"])
        with pytest.raises(ExplorationError, match="node_limit"):
            explore(prog, node_limit=10)

    def test_seeds_override(self):
        x = Var.shared("x", IntRange(0, 9))
        inc = GuardedCommand("inc", x.ref() < 9, [(x, x.ref() + 1)])
        prog = Program("Seeded", [x], ExprPredicate(x.ref() == 0), [inc])
        sub = explore(prog, seeds=np.array([7]))
        assert sub.global_ids.tolist() == [7, 8, 9]
        assert sub.dist.tolist() == [0, 1, 2]

    def test_seed_out_of_range_raises(self):
        x = Var.shared("x", IntRange(0, 9))
        prog = Program("Seeded", [x], ExprPredicate(x.ref() == 0), [])
        with pytest.raises(ExplorationError, match="seed"):
            explore(prog, seeds=np.array([10]))

    def test_subspace_cache_is_shared(self):
        pl = build_pipeline_system(10)
        assert reachable_subspace(pl.system) is reachable_subspace(pl.system)

    def test_local_of_rejects_non_members(self):
        x = Var.shared("x", IntRange(0, 9))
        prog = Program("Tiny", [x], ExprPredicate(x.ref() == 0), [])
        sub = explore(prog)
        with pytest.raises(ExplorationError, match="not in the reachable"):
            sub.local_of(np.array([5]))


# ---------------------------------------------------------------------------
# Satellite: reachable_states raises a typed limit error
# ---------------------------------------------------------------------------


class TestReachableStatesSatellite:
    def _prog(self):
        x = Var.shared("x", IntRange(0, 7))
        inc = GuardedCommand("inc", x.ref() < 7, [(x, x.ref() + 1)])
        return x, Program("Walk", [x], ExprPredicate(x.ref() == 0), [inc])

    def test_limit_raises_typed_error(self):
        _, prog = self._prog()
        with pytest.raises(ExplorationError):
            reachable_states(prog, limit=3)
        # Backward compatible with the old bare ValueError contract.
        with pytest.raises(ValueError):
            reachable_states(prog, limit=3)


# ---------------------------------------------------------------------------
# Satellite: condensation memoization
# ---------------------------------------------------------------------------


class TestCondensationMemo:
    def test_repeated_mask_hits_cache(self):
        a = build_allocator_system(2, total=2)
        graph = TransitionSystem.for_program(a.system).graph()
        q = ExprPredicate(a.avail.ref() > 0).mask(a.system.space)
        first = graph.condensation(~q)
        again = graph.condensation(~q)
        assert first is again  # memoized, not recomputed
        other = graph.condensation(q)
        assert other is not first
        assert graph.condensation(q) is other

    def test_cache_evicts_oldest(self):
        a = build_allocator_system(2, total=2)
        graph = TransitionSystem.for_program(a.system).graph()
        n = a.system.space.size
        rng = np.random.default_rng(0)
        first_mask = rng.random(n) < 0.5
        first = graph.condensation(first_mask)
        for _ in range(graph.COND_CACHE_SIZE):
            graph.condensation(rng.random(n) < 0.5)
        assert graph.condensation(first_mask) is not first  # evicted
