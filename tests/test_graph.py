"""Tests for repro.graph: neighbourhood graphs, orientations, closures,
acyclicity (Lemma 2), derivations (Definition 1 + Lemma 1), generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph.acyclicity import (
    cycle_witness,
    is_acyclic,
    lemma2_holds,
    maximal_nodes_above,
    topological_order,
)
from repro.graph.derivation import (
    apply_reversal,
    derivations_from,
    is_derivation,
    lemma1_bound_holds,
)
from repro.graph.generators import (
    clique_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_graph,
    random_regular_graph,
    ring_graph,
    star_graph,
    torus_graph,
    tree_graph,
)
from repro.graph.neighborhood import NeighborhoodGraph
from repro.graph.orientation import Orientation
from repro.graph.reachability import (
    above_star,
    above_star_all,
    duality_holds,
    reach_star,
    reach_star_all,
)
from repro.util.bitset import bit, bitset_to_list


class TestNeighborhoodGraph:
    def test_basic(self):
        g = NeighborhoodGraph(4, [(0, 1), (1, 2), (3, 2)])
        assert g.m == 3
        assert g.neighbors(1) == (0, 2)
        assert g.neighbors(2) == (1, 3)
        assert g.degree(0) == 1

    def test_paper_wellformedness(self):
        g = ring_graph(5)
        assert g.is_symmetric_and_irreflexive()

    def test_edge_normalization(self):
        g = NeighborhoodGraph(3, [(2, 0)])
        assert g.edges == ((0, 2),)
        assert g.edge_id(0, 2) == g.edge_id(2, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="i ∉ N"):
            NeighborhoodGraph(2, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(GraphError):
            NeighborhoodGraph(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            NeighborhoodGraph(2, [(0, 2)])

    def test_missing_edge_lookup(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            g.edge_id(0, 2)

    def test_neighbor_mask(self):
        g = star_graph(4)
        assert bitset_to_list(g.neighbor_mask(0)) == [1, 2, 3]

    def test_incident_edges(self):
        g = ring_graph(3)
        assert len(g.incident_edges(0)) == 2

    def test_equality(self):
        assert ring_graph(4) == ring_graph(4)
        assert ring_graph(4) != ring_graph(5)


class TestOrientation:
    def test_from_ranking_node0_wins(self):
        g = ring_graph(3)
        o = Orientation.from_ranking(g)
        assert o.arrow(0, 1) and o.arrow(0, 2) and o.arrow(1, 2)
        assert o.priority(0)
        assert not o.priority(1)

    def test_from_arrows(self):
        g = path_graph(3)
        o = Orientation.from_arrows(g, [(1, 0), (1, 2)])
        assert o.priority(1)
        assert o.a_list(0) == [1]

    def test_from_arrows_must_cover(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            Orientation.from_arrows(g, [(1, 0)])
        with pytest.raises(GraphError):
            Orientation.from_arrows(g, [(1, 0), (0, 1)])

    def test_ranking_must_be_injective(self):
        with pytest.raises(GraphError):
            Orientation.from_ranking(path_graph(3), [0, 0, 1])

    def test_r_and_a_partition_neighbors(self):
        g = ring_graph(5)
        o = Orientation.from_ranking(g, [3, 0, 4, 1, 2])
        for i in g.nodes():
            r, a = set(o.r_list(i)), set(o.a_list(i))
            assert r | a == set(g.neighbors(i))
            assert not (r & a)

    def test_priority_iff_a_empty(self):
        g = clique_graph(4)
        for bits in range(1 << g.m):
            o = Orientation(g, bits)
            for i in g.nodes():
                assert o.priority(i) == (o.a_set(i) == 0)

    def test_reversed_node(self):
        g = ring_graph(3)
        o = Orientation.from_ranking(g)
        o2 = o.reversed_node(0)
        assert o2.a_list(0) == [1, 2]
        assert not o2.priority(0)
        assert o2.priority(1)  # 1 now beats 0 and already beat 2

    def test_bits_range_checked(self):
        with pytest.raises(GraphError):
            Orientation(path_graph(2), 4)


class TestReachability:
    def test_chain(self):
        g = path_graph(4)
        o = Orientation.from_ranking(g)  # 0→1→2→3
        assert bitset_to_list(reach_star(o, 0)) == [1, 2, 3]
        assert bitset_to_list(above_star(o, 3)) == [0, 1, 2]
        assert reach_star(o, 3) == 0

    def test_nonreflexive_on_acyclic(self):
        g = ring_graph(5)
        o = Orientation.from_ranking(g)
        for i in g.nodes():
            assert not reach_star(o, i) & bit(i)

    def test_cycle_reaches_itself(self):
        g = ring_graph(3)
        o = Orientation.from_arrows(g, [(0, 1), (1, 2), (2, 0)])
        for i in g.nodes():
            assert reach_star(o, i) & bit(i)
            assert above_star(o, i) & bit(i)

    def test_all_variants_agree(self):
        g = random_graph(7, 0.4, seed=3)
        o = Orientation.from_ranking(g, [4, 2, 6, 0, 5, 1, 3])
        r_all = reach_star_all(o)
        a_all = above_star_all(o)
        for i in g.nodes():
            assert r_all[i] == reach_star(o, i)
            assert a_all[i] == above_star(o, i)

    @settings(max_examples=40)
    @given(st.integers(3, 8), st.integers(0, 10_000))
    def test_duality_paper_11(self, n, bits_seed):
        """(11): i ∈ R*(j) ≡ j ∈ A*(i) for arbitrary orientations."""
        g = ring_graph(n)
        o = Orientation(g, bits_seed % (1 << g.m))
        assert duality_holds(o)


class TestAcyclicity:
    def test_ranking_orientations_acyclic(self):
        for g in [ring_graph(6), clique_graph(5), grid_graph(2, 3)]:
            assert is_acyclic(Orientation.from_ranking(g))

    def test_directed_cycle_detected(self):
        g = ring_graph(3)
        o = Orientation.from_arrows(g, [(0, 1), (1, 2), (2, 0)])
        assert not is_acyclic(o)
        witness = cycle_witness(o)
        assert witness is not None and len(witness) == 3

    def test_no_cycle_witness_on_acyclic(self):
        assert cycle_witness(Orientation.from_ranking(ring_graph(5))) is None

    def test_topological_order(self):
        g = clique_graph(4)
        o = Orientation.from_ranking(g, [2, 0, 3, 1])
        order = topological_order(o)
        pos = {v: k for k, v in enumerate(order)}
        for i, j in o.arrows():
            assert pos[i] < pos[j]

    def test_topological_rejects_cycle(self):
        g = ring_graph(3)
        o = Orientation.from_arrows(g, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(GraphError):
            topological_order(o)

    def test_lemma2_on_acyclic(self):
        for seed in range(5):
            g = random_graph(8, 0.3, seed=seed)
            o = Orientation.from_ranking(g, list(range(8)))
            assert lemma2_holds(o)

    def test_lemma2_fails_on_cycles(self):
        g = ring_graph(3)
        o = Orientation.from_arrows(g, [(0, 1), (1, 2), (2, 0)])
        assert not lemma2_holds(o)

    def test_maximal_nodes_have_priority(self):
        g = grid_graph(2, 3)
        o = Orientation.from_ranking(g, [5, 2, 4, 0, 3, 1])
        for i in g.nodes():
            for j in maximal_nodes_above(o, i):
                assert o.priority(j)

    @settings(max_examples=40)
    @given(st.integers(4, 8), st.permutations(list(range(8))))
    def test_from_ranking_always_acyclic(self, n, perm):
        g = clique_graph(n)
        o = Orientation.from_ranking(g, perm[:n])
        assert is_acyclic(o)


class TestDerivation:
    def test_definition1(self):
        g = ring_graph(4)
        o = Orientation.from_ranking(g)
        o2 = apply_reversal(o, 0)
        assert is_derivation(o, o2, 0)
        assert not is_derivation(o, o2, 1)
        assert not is_derivation(o, o, 0)  # edges of 0 not incoming in G'

    def test_apply_requires_priority(self):
        g = ring_graph(4)
        o = Orientation.from_ranking(g)
        with pytest.raises(ValueError):
            apply_reversal(o, 2)

    def test_derivations_from_priority_nodes(self):
        g = ring_graph(4)
        o = Orientation.from_ranking(g)
        moves = derivations_from(o)
        assert [i for i, _ in moves] == o.priority_nodes()
        for i, o2 in moves:
            assert is_derivation(o, o2, i)

    def test_lemma1_bound(self):
        g = random_graph(7, 0.35, seed=1)
        o = Orientation.from_ranking(g)
        for i, o2 in derivations_from(o):
            assert lemma1_bound_holds(o, o2, i)

    @settings(max_examples=60)
    @given(st.integers(4, 7), st.permutations(list(range(7))),
           st.lists(st.integers(0, 6), max_size=12))
    def test_reversal_preserves_acyclicity_property5(self, n, perm, moves):
        """Property 5 as graph theory: any sequence of priority-node
        reversals keeps an acyclic orientation acyclic, and Lemma 1 holds
        along the way."""
        g = ring_graph(n)
        o = Orientation.from_ranking(g, perm[:n])
        for pick in moves:
            i = pick % n
            if not o.priority(i):
                continue
            o2 = apply_reversal(o, i)
            assert is_derivation(o, o2, i)
            assert lemma1_bound_holds(o, o2, i)
            o = o2
            assert is_acyclic(o)


class TestGenerators:
    @pytest.mark.parametrize("build, n, m", [
        (lambda: ring_graph(5), 5, 5),
        (lambda: path_graph(5), 5, 4),
        (lambda: star_graph(5), 5, 4),
        (lambda: clique_graph(5), 5, 10),
        (lambda: grid_graph(2, 3), 6, 7),
    ])
    def test_shapes(self, build, n, m):
        g = build()
        assert g.n == n and g.m == m
        assert g.is_symmetric_and_irreflexive()

    def test_tree_has_n_minus_1_edges(self):
        g = tree_graph(9, seed=4)
        assert g.m == 8

    def test_random_graph_seeded(self):
        a = random_graph(8, 0.5, seed=9)
        b = random_graph(8, 0.5, seed=9)
        assert a == b

    def test_random_graph_path_backbone(self):
        g = random_graph(6, 0.0, seed=0)
        assert g.m == 5  # just the backbone

    def test_size_validation(self):
        with pytest.raises(GraphError):
            ring_graph(2)
        with pytest.raises(GraphError):
            path_graph(1)
        with pytest.raises(GraphError):
            random_graph(5, 1.5)
        with pytest.raises(GraphError):
            grid_graph(1, 1)


class TestScenarioFamilyGenerators:
    """The generators behind the `scenario` families (torus, hypercube,
    random regular): shapes, regularity, determinism, validation."""

    @settings(max_examples=20)
    @given(st.integers(3, 6), st.integers(3, 6))
    def test_torus_is_4_regular(self, rows, cols):
        g = torus_graph(rows, cols)
        assert g.n == rows * cols
        assert g.m == 2 * rows * cols
        assert all(g.degree(v) == 4 for v in range(g.n))
        assert g.is_symmetric_and_irreflexive()

    def test_torus_wraps(self):
        g = torus_graph(3, 4)
        # Row wraparound: last column connects back to column 0.
        assert g.has_edge(3, 0)
        # Column wraparound: last row connects back to row 0.
        assert g.has_edge(8, 0)

    def test_torus_too_small(self):
        with pytest.raises(GraphError):
            torus_graph(2, 5)
        with pytest.raises(GraphError):
            torus_graph(5, 2)

    @settings(max_examples=8)
    @given(st.integers(1, 6))
    def test_hypercube_shape(self, d):
        g = hypercube_graph(d)
        assert g.n == 2**d
        assert g.m == d * 2 ** (d - 1)
        assert all(g.degree(v) == d for v in range(g.n))
        # Every edge flips exactly one bit.
        assert all(bin(a ^ b).count("1") == 1 for a, b in g.edges)

    def test_hypercube_validation(self):
        with pytest.raises(GraphError):
            hypercube_graph(0)

    @settings(max_examples=20)
    @given(st.integers(0, 1_000))
    def test_random_regular_is_regular(self, seed):
        g = random_regular_graph(10, 3, seed=seed)
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in range(10))
        assert g.is_symmetric_and_irreflexive()

    def test_random_regular_seeded(self):
        assert random_regular_graph(12, 3, seed=5) == random_regular_graph(
            12, 3, seed=5
        )

    def test_random_regular_validation(self):
        with pytest.raises(GraphError):  # n*d odd
            random_regular_graph(5, 3)
        with pytest.raises(GraphError):  # d >= n
            random_regular_graph(4, 4)
        with pytest.raises(GraphError):
            random_regular_graph(1, 1)
