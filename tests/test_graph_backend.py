"""Tests for the graph backend's table walks, the masked sub-CSR and the
CSR kernels."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.commands import GuardedCommand
from repro.core.domains import IntRange
from repro.core.predicates import ExprPredicate
from repro.core.program import Program
from repro.core.variables import Var
from repro.errors import ProgramError
from repro.semantics import transition
from repro.semantics.graph_backend import GraphBackend
from repro.semantics.transition import TransitionSystem
from repro.util.csr import (
    build_csr,
    csr_neighbors,
    dedup_edges,
    minimal_int_dtype,
)


def naive_edges(tables):
    """Reference edge set: dedup'd, self-loops dropped."""
    edges = set()
    for table in tables:
        for s, t in enumerate(table):
            if s != int(t):
                edges.add((s, int(t)))
    return edges


def random_tables(seed, n=None, ntables=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(2, 50))
    ntables = ntables or int(rng.integers(1, 5))
    return n, [rng.integers(0, n, size=n, dtype=np.int64) for _ in range(ntables)]


class TestCsrKernels:
    def test_minimal_dtype(self):
        assert minimal_int_dtype(10) == np.int32
        assert minimal_int_dtype(2**31 - 1) == np.int32
        assert minimal_int_dtype(2**31) == np.int64

    def test_build_and_neighbors_roundtrip(self):
        src = np.array([0, 0, 2, 1, 2])
        dst = np.array([1, 2, 0, 2, 1])
        indptr, nbr = build_csr(src, dst, 3)
        assert nbr.dtype == np.int32
        assert sorted(nbr[indptr[0]:indptr[1]].tolist()) == [1, 2]
        assert nbr[indptr[1]:indptr[2]].tolist() == [2]
        assert sorted(nbr[indptr[2]:indptr[3]].tolist()) == [0, 1]
        # Frontier gather, including the small-frontier fast paths.
        assert csr_neighbors(indptr, nbr, np.array([], dtype=np.int64)).size == 0
        assert csr_neighbors(indptr, nbr, np.array([1])).tolist() == [2]
        got = csr_neighbors(indptr, nbr, np.array([0, 2]))
        assert sorted(got.tolist()) == [0, 1, 1, 2]
        wide = csr_neighbors(indptr, nbr, np.array([0, 1, 2, 0, 1, 2]))
        assert wide.size == 10

    def test_dedup_edges(self):
        src = np.array([3, 1, 3, 0])
        dst = np.array([2, 1, 2, 0])
        s, d = dedup_edges(src, dst, 4)
        assert set(zip(s.tolist(), d.tolist())) == {(3, 2), (1, 1), (0, 0)}

    def test_masked_subgraph_matches_reference(self):
        # The masked sub-CSR a condensation carries is built from the
        # tables on the masked nodes only; both views must hold exactly
        # the tables' edges with both endpoints masked.
        for seed in range(25):
            n, tables = random_tables(seed)
            edges = naive_edges(tables)
            rng = np.random.default_rng(1000 + seed)
            mask = rng.random(n) < 0.6
            sub = GraphBackend(n, tables).condensation(mask).subgraph
            nodes = sub.nodes
            assert nodes.tolist() == np.flatnonzero(mask).tolist()
            views = {}
            for name, (indptr, nbr) in (("fwd", sub.fwd), ("rev", sub.rev)):
                views[name] = {
                    (int(nodes[ci]), int(nodes[int(t)]))
                    for ci in range(nodes.size)
                    for t in nbr[indptr[ci]:indptr[ci + 1]]
                }
            want = {(s, t) for s, t in edges if mask[s] and mask[t]}
            assert views["fwd"] == want
            assert sub.fwd[0][-1] == sub.rev[0][-1] == len(want)  # no dups
            assert views["rev"] == {(t, s) for s, t in want}


class TestGraphBackend:
    def backend(self, seed):
        n, tables = random_tables(seed)
        return n, tables, GraphBackend(n, tables)

    def test_forward_closure_matches_reference(self):
        for seed in range(20):
            n, tables, gb = self.backend(seed)
            rng = np.random.default_rng(seed)
            seeds = rng.random(n) < 0.2
            visited = seeds.copy()
            for _ in range(n):
                for table in tables:
                    visited[table[visited]] = True
            assert np.array_equal(gb.table_closure(seeds), visited)

    def test_table_closure_restricted(self):
        for seed in range(20):
            n, tables, gb = self.backend(seed)
            rng = np.random.default_rng(seed)
            seeds = rng.random(n) < 0.15
            allowed = rng.random(n) < 0.7
            # Reference: fixpoint of "an allowed successor of the set".
            visited = seeds.copy()
            for _ in range(n):
                for table in tables:
                    succ = table[visited]
                    visited[succ[allowed[succ]]] = True
            assert np.array_equal(gb.table_closure(seeds, allowed), visited)

    def test_reverse_closure_restricted(self):
        for seed in range(20):
            n, tables, gb = self.backend(seed)
            rng = np.random.default_rng(seed)
            seeds = rng.random(n) < 0.15
            allowed = (rng.random(n) < 0.7) | seeds
            # Reference: fixpoint of "has an allowed successor in the set".
            visited = seeds.copy()
            for _ in range(n):
                for table in tables:
                    visited |= allowed & visited[table]
            # The masked sub-CSR of the whole space, on identity ids.
            sub = gb.condensation(np.ones(n, dtype=bool)).subgraph
            assert np.array_equal(
                sub.reverse_closure(seeds, allowed=allowed), visited
            )

    def test_distances_match_reference(self):
        for seed in range(20):
            n, tables, gb = self.backend(seed)
            rng = np.random.default_rng(seed)
            start = rng.random(n) < 0.2
            dist = np.full(n, -1, dtype=np.int64)
            dist[start] = 0
            frontier = np.flatnonzero(start)
            level = 0
            while frontier.size:
                level += 1
                nxt = []
                for table in tables:
                    succ = table[frontier]
                    fresh = np.unique(succ[dist[succ] < 0])
                    if fresh.size:
                        dist[fresh] = level
                        nxt.append(fresh)
                frontier = (
                    np.unique(np.concatenate(nxt)) if nxt else np.empty(0, np.int64)
                )
            assert np.array_equal(gb.distances(start), dist)

    def test_empty_seeds(self):
        n, tables, gb = self.backend(7)
        none = np.zeros(n, dtype=bool)
        assert not gb.table_closure(none).any()
        sub = gb.condensation(np.ones(n, dtype=bool)).subgraph
        assert not sub.reverse_closure(none).any()
        assert (gb.distances(none) == -1).all()

    def test_no_tables(self):
        gb = GraphBackend(4, [])
        seeds = np.array([True, False, True, False])
        assert np.array_equal(gb.table_closure(seeds), seeds)
        assert gb.distances(seeds).tolist() == [0, -1, 0, -1]


class TestTransitionSystemIntegration:
    def ladder(self, depth):
        x = Var.shared("x", IntRange(0, depth))
        ups = [
            GuardedCommand(f"up{k}", x.ref() == k, [(x, k + 1)])
            for k in range(depth)
        ]
        return Program(
            "Ladder", [x], ExprPredicate(x.ref() == 0), ups,
            fair=[f"up{k}" for k in range(depth)],
        )

    def test_backend_is_cached_per_system(self):
        prog = self.ladder(5)
        ts = TransitionSystem.for_program(prog)
        gb = ts.graph()
        assert gb is ts.graph()

    def test_cache_entry_dies_with_its_program(self):
        # The system refers to its program weakly, so the weak-keyed
        # table cache frees the entry (and its tables) with the program.
        prog = self.ladder(5)
        ts = TransitionSystem.for_program(prog)
        ts.graph().table_closure(prog.initial_mask())
        assert transition._CACHE[prog] is ts
        assert ts.program is prog
        program_ref = weakref.ref(prog)
        del prog
        gc.collect()
        assert program_ref() is None
        assert all(entry is not ts for entry in list(transition._CACHE.values()))
        with pytest.raises(ProgramError, match="garbage-collected"):
            ts.program
        # Everything but the program itself is still usable.
        assert [cmd.name for cmd, _ in ts.fair_tables()] == [
            f"up{k}" for k in range(5)
        ]

    def test_closures_respect_program_semantics(self):
        from repro.semantics.explorer import distance_map, reachable_mask

        prog = self.ladder(6)
        mask = reachable_mask(prog)
        assert mask.all()
        dist = distance_map(prog)
        assert dist.tolist() == list(range(7))
