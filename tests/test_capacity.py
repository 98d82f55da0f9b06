"""Capacity-regime tests: per-tier caps instead of a constructor wall.

The contract under test (see ``repro.core.state.StateSpace``):

- construction always succeeds — ``size`` is an exact Python int, and a
  10^12-state composition product builds instantly;
- every dense entry point (decode arrays, successor tables, graph
  backends, the checkers' dense fallbacks) refuses such spaces with a
  :class:`~repro.errors.CapacityError`, which subclasses the old
  :class:`~repro.errors.StateError` so existing ``except`` sites keep
  working;
- the sparse tier decides properties over those spaces end to end, capped
  only by its ``node_limit`` on *discovered* states and by the ``int64``
  index range;
- the overflow-safe kernels (``dedup_edges`` beyond the int64 pair-key
  range, chunked successor tables) agree exactly with their
  straightforward counterparts.
"""

import numpy as np
import pytest

import repro.core.commands as commands_module
import repro.semantics.sparse as sparse_pkg
from repro.core.commands import GuardedCommand
from repro.core.domains import IntRange
from repro.core.predicates import ExprPredicate, FnPredicate
from repro.core.program import Program
from repro.core.state import StateSpace
from repro.core.variables import Var
from repro.errors import CapacityError, ExplorationError, ReproError, StateError
from repro.semantics.explorer import reachable_states
from repro.semantics.graph_backend import GraphBackend
from repro.semantics.leadsto import check_leadsto
from repro.semantics.sparse.explorer import explore, reachable_subspace
from repro.semantics.strong_fairness import check_leadsto_strong
from repro.semantics.transition import TransitionSystem
from repro.systems.philosophers import build_philosopher_grid
from repro.systems.product import build_pipeline_allocator
from repro.util.csr import PAIR_KEY_MAX, dedup_edges


def tera_vars() -> list[Var]:
    """Twelve decimal digits: a 10^12-state product space."""
    return [Var.shared(f"d{k}", IntRange(0, 9)) for k in range(12)]


class TestConstructionUnbounded:
    def test_tera_space_constructs(self):
        space = StateSpace(tera_vars())
        assert space.size == 10**12
        assert space.size > StateSpace.DENSE_MAX

    def test_exact_size_beyond_int64(self):
        space = StateSpace([Var.shared(f"w{k}", IntRange(0, 255)) for k in range(9)])
        assert space.size == 256**9  # 2^72: exact, no overflow

    def test_scalar_codec_works_at_tera_scale(self):
        space = StateSpace(tera_vars())
        state = space.state_at(123_456_789_012)
        assert space.index_of(state) == 123_456_789_012


class TestDenseEntryPointsRefuse:
    def test_capacity_error_is_state_error(self):
        assert issubclass(CapacityError, StateError)
        assert issubclass(CapacityError, ReproError)

    def test_decode_arrays_refuse(self):
        space = StateSpace(tera_vars())
        with pytest.raises(CapacityError, match="sparse"):
            space.var_arrays()
        with pytest.raises(CapacityError):
            space.index_arrays()
        with pytest.raises(CapacityError):
            next(space.iter_states())

    def test_succ_table_refuses(self):
        space = StateSpace(tera_vars())
        d0 = space.vars[0]
        inc = GuardedCommand("inc", d0.ref() < 9, [(d0, d0.ref() + 1)])
        with pytest.raises(CapacityError, match="DENSE_MAX"):
            inc.succ_table(space)

    def test_transition_system_refuses(self):
        space_vars = tera_vars()
        d0 = space_vars[0]
        prog = Program(
            "Tera",
            space_vars,
            ExprPredicate(d0.ref() == 0),
            [GuardedCommand("inc", d0.ref() < 9, [(d0, d0.ref() + 1)])],
        )
        with pytest.raises(CapacityError, match="sparse"):
            TransitionSystem.for_program(prog)
        # The old catch sites still work:
        with pytest.raises(StateError):
            TransitionSystem(prog)

    def test_graph_backend_refuses(self):
        with pytest.raises(CapacityError):
            GraphBackend(StateSpace.DENSE_MAX + 1, [])

    def test_dense_fallback_reports_sparse_failure(self):
        """A routed check the sparse tier cannot decide must refuse with a
        CapacityError carrying the sparse failure, not crash deep in the
        dense tier."""
        space_vars = tera_vars()
        d0 = space_vars[0]
        prog = Program(
            "TeraFnInit",
            space_vars,
            FnPredicate(lambda s: s[d0] == 0, "d0 = 0"),
            [GuardedCommand("inc", d0.ref() < 9, [(d0, d0.ref() + 1)])],
            fair=["inc"],
        )
        with pytest.raises(CapacityError, match="sparse tier failed"):
            check_leadsto(
                prog,
                ExprPredicate(d0.ref() == 0),
                ExprPredicate(d0.ref() == 9),
            )


class TestIndexRangeWall:
    def test_beyond_int64_constructs_but_refuses_vector_kernels(self):
        space_vars = [Var.shared(f"w{k}", IntRange(0, 255)) for k in range(9)]
        space = StateSpace(space_vars)
        assert space.size > StateSpace.INDEX_MAX
        with pytest.raises(CapacityError, match="int64"):
            space.require_vector_indexable()
        prog = Program(
            "Beyond64",
            space_vars,
            ExprPredicate(space_vars[0].ref() == 0),
            [],
        )
        with pytest.raises(CapacityError, match="int64"):
            explore(prog)


class TestSparseDecidesBeyondOldCap:
    def test_product_scenario_at_4e12(self):
        pa = build_pipeline_allocator(16)
        assert pa.system.space.size == 4**21  # ≈ 4.4e12 ≥ 1e10
        sub = reachable_subspace(pa.system)
        assert sub.size == 1771
        d = pa.delivery()
        weak = check_leadsto(pa.system, d.p, d.q)
        strong = check_leadsto_strong(pa.system, d.p, d.q)
        assert not weak.holds and weak.witness["tier"] == "sparse"
        assert strong.holds and strong.witness["tier"] == "sparse"

    def test_product_verdicts_agree_with_dense(self, monkeypatch):
        """The fairness gap is pinned densely on a small instance, then
        re-decided through the sparse tier on the same program."""
        pa = build_pipeline_allocator(2, clients=2, total=2)
        assert pa.system.space.size == 729  # dense territory
        d = pa.delivery()
        dense_weak = check_leadsto(pa.system, d.p, d.q)
        dense_strong = check_leadsto_strong(pa.system, d.p, d.q)
        assert "tier" not in dense_weak.witness
        monkeypatch.setattr(sparse_pkg, "SPARSE_THRESHOLD", 1)
        sparse_weak = check_leadsto(pa.system, d.p, d.q)
        sparse_strong = check_leadsto_strong(pa.system, d.p, d.q)
        assert sparse_weak.witness["tier"] == "sparse"
        assert dense_weak.holds == sparse_weak.holds is False
        assert dense_strong.holds == sparse_strong.holds is True

    def test_grid_liveness_sparse(self):
        ps = build_philosopher_grid(3, 3)
        assert ps.system.space.size == 2**21
        lv = ps.liveness(0)
        result = check_leadsto(ps.system, lv.p, lv.q)
        assert result.holds
        assert result.witness["tier"] == "sparse"

    def test_reachable_states_hint_names_node_limit(self):
        pa = build_pipeline_allocator(16)
        with pytest.raises(ExplorationError, match="node_limit"):
            reachable_states(pa.system, limit=10)


class TestOverflowSafeKernels:
    def test_dedup_edges_fallback_matches_set_semantics(self):
        n = PAIR_KEY_MAX + 10
        rng = np.random.default_rng(7)
        src = rng.integers(0, n, size=500, dtype=np.int64)
        dst = rng.integers(0, n, size=500, dtype=np.int64)
        src = np.concatenate([src, src[:100]])
        dst = np.concatenate([dst, dst[:100]])
        s, d = dedup_edges(src, dst, n)
        expected = sorted(set(zip(src.tolist(), dst.tolist())))
        assert list(zip(s.tolist(), d.tolist())) == expected

    def test_dedup_edges_fallback_matches_key_path(self):
        rng = np.random.default_rng(11)
        n = 50
        src = rng.integers(0, n, size=300, dtype=np.int64)
        dst = rng.integers(0, n, size=300, dtype=np.int64)
        fast = dedup_edges(src, dst, n)
        # Force the sort-based fallback on the same edges by lying about
        # the node count (any n' > max id is semantically equivalent).
        slow = dedup_edges(src, dst, PAIR_KEY_MAX + 1)
        assert np.array_equal(fast[0], slow[0])
        assert np.array_equal(fast[1], slow[1])

    def test_chunked_succ_table_matches_whole_space(self, monkeypatch):
        x = Var.shared("x", IntRange(0, 9))
        y = Var.shared("y", IntRange(0, 9))
        space = StateSpace([x, y])
        cmd = GuardedCommand(
            "step",
            (x.ref() < 9) & (y.ref() > 0),
            [(x, x.ref() + 1), (y, y.ref() - 1)],
        )
        whole = cmd.succ_table(space)
        monkeypatch.setattr(commands_module, "SUCC_TABLE_CHUNK", 7)
        chunked = cmd.succ_table(space)
        assert np.array_equal(whole, chunked)
