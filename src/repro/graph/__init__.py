"""Graph substrate for the §4 priority mechanism.

- :mod:`repro.graph.neighborhood` — the undirected, finite conflict graph
  ``P`` (variables ``N(i)``), with the paper's well-formedness conditions
  (irreflexive, symmetric);
- :mod:`repro.graph.orientation` — orientations of ``P`` (the priority
  relation ``i → j``), with ``Priority(i)``, ``R(i)``, ``A(i)``;
- :mod:`repro.graph.reachability` — the transitive closures ``R*(i)`` and
  ``A*(i)`` (bitset fixpoints) and the duality ``i ∈ R*(j) ≡ j ∈ A*(i)``;
- :mod:`repro.graph.acyclicity` — acyclicity, topological order, and
  Lemma 2 (every non-empty above-set of a finite acyclic graph contains a
  maximal node);
- :mod:`repro.graph.derivation` — Definition 1 (``G →_{i₀} G'``: reversal
  of all edges of a priority node) and Lemma 1 (reachability growth is
  bounded by ``{i₀}``);
- :mod:`repro.graph.generators` — graph families for experiments (ring,
  path, star, clique, grid, tree, random).
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "neighborhood": ("NeighborhoodGraph",),
        "orientation": ("Orientation",),
        "reachability": ("reach_star", "above_star"),
        "acyclicity": ("is_acyclic", "topological_order", "maximal_nodes_above"),
        "derivation": (
            "is_derivation", "apply_reversal", "derivations_from", "lemma1_bound_holds",
        ),
        "generators": (
            "ring_graph", "path_graph", "star_graph", "clique_graph",
            "grid_graph", "tree_graph", "random_graph",
        ),
    },
)
