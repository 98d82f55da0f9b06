"""Tests for the shared CSR graph backend and its CSR kernels."""

import gc
import threading
import time
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
    masked_subgraph,
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
        for seed in range(25):
            n, tables = random_tables(seed)
            edges = naive_edges(tables)
            src = np.array([s for s, _ in edges] or [0], dtype=np.int64)[: len(edges)]
            dst = np.array([t for _, t in edges] or [0], dtype=np.int64)[: len(edges)]
            indptr, nbr = build_csr(src, dst, n)
            rng = np.random.default_rng(1000 + seed)
            mask = rng.random(n) < 0.6
            sub_indptr, sub_nbr, nodes = masked_subgraph(indptr, nbr, mask)
            got = set()
            for ci in range(nodes.size):
                for t in sub_nbr[sub_indptr[ci]:sub_indptr[ci + 1]]:
                    got.add((int(nodes[ci]), int(nodes[int(t)])))
            want = {(s, t) for s, t in edges if mask[s] and mask[t]}
            assert got == want


class TestGraphBackend:
    def backend(self, seed):
        n, tables = random_tables(seed)
        return n, tables, GraphBackend(n, tables)

    def test_concurrent_first_use_finds_both_views(self, monkeypatch):
        # A sparse subspace's backend is shared by concurrent verify()
        # calls.  Hold the builder inside its second (reverse) CSR build
        # and let another thread ask for the reverse view meanwhile: it
        # must never find the forward view published without the
        # reverse one.
        from repro.semantics import graph_backend

        real_build = graph_backend.build_csr
        calls = []
        in_reverse_build = threading.Event()

        def slow_build(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                in_reverse_build.set()
                time.sleep(0.2)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(graph_backend, "build_csr", slow_build)
        n, tables = random_tables(0, n=500)
        gb = GraphBackend(n, tables)
        errors = []

        def reader():
            in_reverse_build.wait(timeout=10)
            try:
                gb.reverse_csr()
            except Exception as exc:  # the failure mode
                errors.append(exc)

        threads = [
            threading.Thread(target=gb.forward_csr),
            threading.Thread(target=reader),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert in_reverse_build.is_set()
        assert errors == []
        assert gb.reverse_csr()[0][-1] == gb.edge_count

    def test_csr_matches_reference_edges(self):
        for seed in range(20):
            n, tables, gb = self.backend(seed)
            indptr, nbr = gb.forward_csr()
            got = {
                (s, int(t))
                for s in range(n)
                for t in nbr[indptr[s]:indptr[s + 1]]
            }
            assert got == naive_edges(tables)
            rp, rn = gb.reverse_csr()
            got_rev = {
                (int(t), s)
                for s in range(n)
                for t in rn[rp[s]:rp[s + 1]]
            }
            assert got_rev == naive_edges(tables)
            assert gb.edge_count == len(naive_edges(tables))

    def test_forward_closure_matches_reference(self):
        for seed in range(20):
            n, tables, gb = self.backend(seed)
            rng = np.random.default_rng(seed)
            seeds = rng.random(n) < 0.2
            visited = seeds.copy()
            for _ in range(n):
                for table in tables:
                    visited[table[visited]] = True
            assert np.array_equal(gb.forward_closure(seeds), visited)

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
            assert np.array_equal(
                gb.reverse_closure(seeds, allowed=allowed), visited
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
        assert not gb.forward_closure(none).any()
        assert not gb.reverse_closure(none).any()
        assert (gb.distances(none) == -1).all()


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
        indptr, nbr = gb.forward_csr()
        indptr2, _ = gb.forward_csr()
        assert indptr is indptr2

    def test_cache_entry_dies_with_its_program(self):
        # The system refers to its program weakly, so the weak-keyed
        # table cache frees the entry (and its tables) with the program.
        prog = self.ladder(5)
        ts = TransitionSystem.for_program(prog)
        ts.graph().forward_csr()
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

    def test_union_graph_drops_self_loops_and_dups(self):
        prog = self.ladder(4)
        gb = TransitionSystem.for_program(prog).graph()
        indptr, nbr = gb.forward_csr()
        # The ladder's union graph is the pure path 0→1→…→4.
        assert gb.edge_count == 4
        for s in range(4):
            assert nbr[indptr[s]:indptr[s + 1]].tolist() == [s + 1]
        assert nbr.dtype == gb.dtype == np.int32

    def test_closures_respect_program_semantics(self):
        from repro.semantics.explorer import distance_map, reachable_mask

        prog = self.ladder(6)
        mask = reachable_mask(prog)
        assert mask.all()
        dist = distance_map(prog)
        assert dist.tolist() == list(range(7))
