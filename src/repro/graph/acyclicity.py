"""Acyclicity, topological order, and the paper's Lemma 2.

§4.4: ``Acyclicity ≡ ⟨∀i : i ∉ R*(i)⟩ ≡ ⟨∀i : i ∉ A*(i)⟩``.

Lemma 2: *"There is at least one maximal node in any non-empty above-set of
a finite acyclic graph"* — the pigeonhole fact powering Property 6: a
non-priority component always has a priority component above it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.orientation import Orientation
from repro.graph.reachability import above_star_all, reach_star_all
from repro.util.bitset import bit, iter_bits

__all__ = [
    "is_acyclic",
    "acyclic_rows",
    "topological_order",
    "maximal_nodes_above",
    "lemma2_holds",
]


def is_acyclic(orientation: Orientation) -> bool:
    """``⟨∀i : i ∉ R*(i)⟩`` — no node reaches itself."""
    for i, r in enumerate(reach_star_all(orientation)):
        if r & bit(i):
            return False
    return True


def acyclic_rows(graph, edge_cols: np.ndarray) -> np.ndarray:
    """Vectorized acyclicity over a **batch** of orientations.

    ``edge_cols`` is a boolean ``(rows, graph.m)`` matrix: entry ``[r, k]``
    orients edge ``k = (a, b)`` (normalized ``a < b``) as ``a → b`` when
    true, matching the edge-variable encoding of
    :func:`repro.systems.priority.edge_var`.  Returns a length-``rows``
    boolean mask — row ``r`` is true iff its orientation is acyclic.

    This is the frontier kernel behind the scaled philosopher scenarios:
    a Kahn peel run simultaneously on every row (``graph.n`` rounds of
    ``graph.m`` vectorized column updates), with work proportional to the
    batch, never to an encoded space.  Agrees with :func:`is_acyclic`
    row-by-row (pinned by tests).
    """
    edge_cols = np.asarray(edge_cols, dtype=bool)
    rows = edge_cols.shape[0]
    n, m = graph.n, graph.m
    if edge_cols.shape != (rows, m):
        raise GraphError(
            f"edge_cols must be (rows, {m}), got {edge_cols.shape}"
        )
    indeg = np.zeros((rows, n), dtype=np.int16)
    for k, (a, b) in enumerate(graph.edges):
        fwd = edge_cols[:, k]
        indeg[:, b] += fwd
        indeg[:, a] += ~fwd
    alive = np.ones((rows, n), dtype=bool)
    for _ in range(n):
        peel = alive & (indeg == 0)
        if not peel.any():
            break
        for k, (a, b) in enumerate(graph.edges):
            fwd = edge_cols[:, k]
            indeg[:, b] -= peel[:, a] & fwd
            indeg[:, a] -= peel[:, b] & ~fwd
        alive &= ~peel
    return ~alive.any(axis=1)


def topological_order(orientation: Orientation) -> list[int]:
    """A topological order of an acyclic orientation (Kahn's algorithm):
    every arrow goes from an earlier to a later node.  Raises
    :class:`GraphError` on cyclic orientations."""
    g = orientation.graph
    indeg = [len(orientation.a_list(i)) for i in g.nodes()]
    ready = [i for i in g.nodes() if indeg[i] == 0]
    order: list[int] = []
    while ready:
        i = ready.pop()
        order.append(i)
        for j in orientation.r_list(i):
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    if len(order) != g.n:
        raise GraphError("orientation is cyclic; no topological order")
    return order


def maximal_nodes_above(orientation: Orientation, i: int) -> list[int]:
    """Nodes ``j ∈ A*(i)`` with ``A*(j) = ∅`` — the maximal elements of the
    above-set, i.e. priority holders dominating ``i``."""
    a_all = above_star_all(orientation)
    return [j for j in iter_bits(a_all[i]) if a_all[j] == 0]


def lemma2_holds(orientation: Orientation) -> bool:
    """Lemma 2: in an acyclic orientation, every non-empty ``A*(i)``
    contains a maximal node.  (Callers should pass acyclic orientations;
    the lemma can genuinely fail on cyclic ones, which tests exploit.)"""
    a_all = above_star_all(orientation)
    for i, above in enumerate(a_all):
        if above == 0:
            continue
        if not any(a_all[j] == 0 for j in iter_bits(above)):
            return False
    return True


def cycle_witness(orientation: Orientation) -> list[int] | None:
    """Some directed cycle (node list) if one exists, else ``None``.

    Diagnostic companion to :func:`is_acyclic`; uses iterative DFS with
    colouring.
    """
    g = orientation.graph
    color = [0] * g.n  # 0 = white, 1 = on stack, 2 = done
    parent: dict[int, int] = {}
    for root in g.nodes():
        if color[root] != 0:
            continue
        stack: list[tuple[int, list[int]]] = [(root, orientation.r_list(root))]
        color[root] = 1
        while stack:
            node, todo = stack[-1]
            if todo:
                j = todo.pop()
                if color[j] == 0:
                    color[j] = 1
                    parent[j] = node
                    stack.append((j, orientation.r_list(j)))
                elif color[j] == 1:
                    # Found a back edge node → j: unwind the cycle.
                    cycle = [node]
                    cur = node
                    while cur != j:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
            else:
                color[node] = 2
                stack.pop()
    return None
