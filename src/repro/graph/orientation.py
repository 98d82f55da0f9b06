"""Orientations of the conflict graph: the priority relation ``i → j``.

An :class:`Orientation` pairs a :class:`~repro.graph.neighborhood.NeighborhoodGraph`
with one direction bit per edge id.  Bit ``k`` for edge ``(i, j)``
(normalized ``i < j``) is True iff ``i → j``, i.e. the lower-numbered
endpoint has priority.  The whole orientation packs into a single integer
``bits`` — which is also exactly the encoded state index of the §4 priority
*system*, so the program semantics and the graph theory share a
representation for free.

Terminology from the paper:

- ``i → j``   — ``i`` has priority over ``j`` (:meth:`arrow`);
- ``R(i)``    — ``{ j ∈ N(i) : i → j }`` (:meth:`r_set`);
- ``A(i)``    — ``{ j ∈ N(i) : j → i }`` (:meth:`a_set`);
- ``Priority(i) ≡ ⟨∀j ∈ N(i) : i → j⟩ ≡ A(i) = ∅`` (:meth:`priority`).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import GraphError
from repro.graph.neighborhood import NeighborhoodGraph
from repro.util.bitset import bit, bitset_to_list

__all__ = ["Orientation"]


class Orientation:
    """An orientation of every edge of a neighbourhood graph."""

    __slots__ = ("graph", "bits")

    def __init__(self, graph: NeighborhoodGraph, bits: int) -> None:
        if not 0 <= bits < (1 << graph.m):
            raise GraphError(
                f"orientation bits {bits} out of range for m={graph.m} edges"
            )
        self.graph = graph
        self.bits = bits

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_arrows(
        cls, graph: NeighborhoodGraph, arrows: Iterable[tuple[int, int]]
    ) -> "Orientation":
        """Build from explicit ``i → j`` pairs (every edge exactly once)."""
        bits = 0
        seen: set[int] = set()
        for i, j in arrows:
            k = graph.edge_id(i, j)
            if k in seen:
                raise GraphError(f"edge {{{i},{j}}} oriented twice")
            seen.add(k)
            if i < j:
                bits |= bit(k)
        if len(seen) != graph.m:
            raise GraphError(
                f"orientation covers {len(seen)} of {graph.m} edges"
            )
        return cls(graph, bits)

    @classmethod
    def from_ranking(
        cls, graph: NeighborhoodGraph, rank: Iterable[int] | None = None
    ) -> "Orientation":
        """Acyclic orientation induced by a total order: lower rank wins.

        With ``rank=None``, node labels are used (node 0 beats everyone).
        Rankings must be injective, which guarantees acyclicity — the
        canonical initial state of the priority system.
        """
        ranks = list(rank) if rank is not None else list(range(graph.n))
        if len(ranks) != graph.n or len(set(ranks)) != graph.n:
            raise GraphError("ranking must assign a distinct rank per node")
        bits = 0
        for k, (i, j) in enumerate(graph.edges):
            if ranks[i] < ranks[j]:
                bits |= bit(k)
        return cls(graph, bits)

    # -- arrows -------------------------------------------------------------------

    def arrow(self, i: int, j: int) -> bool:
        """``i → j`` — does ``i`` have priority over neighbour ``j``?"""
        k = self.graph.edge_id(i, j)
        toward_j = bool(self.bits & bit(k))
        return toward_j if i < j else not toward_j

    def arrows(self) -> list[tuple[int, int]]:
        """All ``(winner, loser)`` pairs."""
        out = []
        for i, j in self.graph.edges:
            out.append((i, j) if self.arrow(i, j) else (j, i))
        return out

    # -- the paper's derived sets ----------------------------------------------------

    def r_set(self, i: int) -> int:
        """``R(i)`` as a bitset: neighbours ``i`` points at."""
        mask = 0
        for j in self.graph.neighbors(i):
            if self.arrow(i, j):
                mask |= bit(j)
        return mask

    def a_set(self, i: int) -> int:
        """``A(i)`` as a bitset: neighbours pointing at ``i``."""
        mask = 0
        for j in self.graph.neighbors(i):
            if not self.arrow(i, j):
                mask |= bit(j)
        return mask

    def r_list(self, i: int) -> list[int]:
        """``R(i)`` as a sorted list."""
        return bitset_to_list(self.r_set(i))

    def a_list(self, i: int) -> list[int]:
        """``A(i)`` as a sorted list."""
        return bitset_to_list(self.a_set(i))

    def priority(self, i: int) -> bool:
        """``Priority(i) ≡ ⟨∀j ∈ N(i) : i → j⟩``.

        Note the equivalence used throughout §4.5: ``Priority(i) ≡
        A(i) = ∅ ≡ A*(i) = ∅`` (the paper's (12)).
        """
        return self.a_set(i) == 0

    def priority_nodes(self) -> list[int]:
        """All nodes currently holding priority."""
        return [i for i in self.graph.nodes() if self.priority(i)]

    # -- mutation (functional) -----------------------------------------------------

    def reversed_node(self, i: int) -> "Orientation":
        """The orientation with **all** edges of ``i`` pointing at ``i``.

        This is the move of the §4 components: on yielding, a node becomes
        lower-priority than all its neighbours at once (the way §4.1 says
        cycles are avoided).  The result is ``G'`` with ``G →_i G'`` when
        ``i`` had priority in ``G`` (Definition 1).
        """
        bits = self.bits
        for k in self.graph.incident_edges(i):
            a, _b = self.graph.edges[k]
            want_bit_set = a != i  # bit set means low endpoint wins
            if want_bit_set:
                bits |= bit(k)
            else:
                bits &= ~bit(k)
        return Orientation(self.graph, bits)

    # -- dunder ----------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Orientation)
            and other.graph == self.graph
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        return hash((Orientation, self.graph, self.bits))

    def __repr__(self) -> str:
        arrows = ", ".join(f"{a}->{b}" for a, b in self.arrows())
        return f"Orientation({arrows})"
