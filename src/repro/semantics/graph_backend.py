"""Graph kernels over a program's transition relation.

The engine stores the transition relation in two forms:

1. **Successor tables**: one ``int64`` array per command, with the
   command's identity kept, as the paper states every property per
   command (``p next q ≡ ⟨∀c : p ⇒ wp.c.q⟩``).  On the full space they
   are :class:`~repro.semantics.transition.TransitionSystem`'s tables; on
   a reachable slice, the local successor columns of a
   :class:`~repro.semantics.sparse.explorer.ReachableSubspace`.
   :class:`GraphBackend` walks them directly: closures
   (:meth:`GraphBackend.table_closure`) and BFS distances
   (:meth:`GraphBackend.distances`) gather ``table[frontier]`` once per
   table and level, on the frontier only.
2. **Masked sub-CSR** (:class:`MaskedSubgraph`): forward + reverse CSR
   adjacency of the subgraph a mask induces, on compact ids.
   :meth:`GraphBackend.condensation` builds it from the tables on the
   masked states only and memoizes it with the SCC condensation; it
   carries the reverse closures and witness paths inside the mask.
   Self-loops are dropped there: they are irrelevant to reachability and
   SCC structure, and fairness (where self-moves *do* matter) reads the
   tables.

No whole-space adjacency is ever built, so a query costs work in the
size of the states it touches.

All traversals use boolean-mask frontiers — duplicate successors are
collapsed by an O(frontier) scatter, or on small frontiers by the
sort-based :func:`~repro.util.csr.sorted_unique` set kernel (never a
flag-less ``np.unique``, which numpy 2.4 runs through a much slower
hash table), and never by repeated per-table sort+dedup rounds.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from collections.abc import Callable
from functools import partial

import numpy as np

from repro import obs
from repro.errors import CapacityError
from repro.semantics.scc import (
    Condensation,
    condense_subgraph,
    sub_csr_from_tables,
)
from repro.util.csr import csr_neighbors, minimal_int_dtype, sorted_unique

__all__ = ["GraphBackend", "MaskedSubgraph"]


#: Node-count capacity of a graph backend; reads the single policy source
#: ``StateSpace.DENSE_MAX`` at call time (imported lazily to keep this
#: module free of core imports at definition time).
def _dense_max() -> int:
    from repro.core.state import StateSpace

    return StateSpace.DENSE_MAX


class _FrontierWalk:
    """Frontier BFS over node ids ``0 .. n - 1``, shared by the table walks
    of :class:`GraphBackend` and the CSR walks of :class:`MaskedSubgraph`."""

    def __init__(self, n: int) -> None:
        self.n = n
        self._scratch: np.ndarray | None = None

    def _mark_fresh(self, cand: np.ndarray) -> np.ndarray:
        """Deduplicate candidate node ids into a sorted fresh-node array.

        Small candidate sets sort directly (:func:`sorted_unique`); large
        ones scatter through a reusable boolean scratch buffer (O(n) scan
        beats O(c log c) sort once the frontier is a sizable fraction of
        the space).
        """
        if cand.size * 8 < self.n:
            return sorted_unique(cand)
        if self._scratch is None:
            self._scratch = np.zeros(self.n, dtype=bool)
        scratch = self._scratch
        scratch[cand] = True
        fresh = np.flatnonzero(scratch)
        scratch[fresh] = False
        return fresh

    def _walk(
        self,
        neighbors: Callable[[np.ndarray], np.ndarray],
        seeds: np.ndarray,
        allowed: np.ndarray | None,
        dist: np.ndarray | None = None,
    ) -> np.ndarray:
        """Frontier BFS from the ``seeds`` mask; ``neighbors`` maps a
        frontier to its candidate successors (duplicates allowed).

        Returns the visited mask.  Fresh nodes must satisfy ``allowed``
        when given (seeds are not filtered).  With ``dist``, each fresh
        node's BFS level is written into it.
        """
        visited = seeds.copy()
        frontier = np.flatnonzero(visited)
        level = 0
        while frontier.size:
            cand = neighbors(frontier)
            if allowed is not None:
                cand = cand[allowed[cand]]
            cand = cand[~visited[cand]]
            if cand.size == 0:
                break
            frontier = self._mark_fresh(cand)
            visited[frontier] = True
            if dist is not None:
                level += 1
                dist[frontier] = level
        return visited


class MaskedSubgraph(_FrontierWalk):
    """The subgraph of a :class:`GraphBackend` induced by a node mask, on
    compact ids: compact id ``k`` is node ``nodes[k]`` of the backend
    (``nodes`` ascends, so compact ids preserve the backend's order).

    ``fwd`` and ``rev`` are its forward and reverse CSR adjacency, each an
    ``(indptr, nbr)`` pair (see :mod:`repro.util.csr`).  Self-loops and
    duplicate edges are dropped.
    """

    def __init__(
        self,
        nodes: np.ndarray,
        fwd: tuple[np.ndarray, np.ndarray],
        rev: tuple[np.ndarray, np.ndarray],
    ) -> None:
        super().__init__(nodes.shape[0])
        self.nodes = nodes
        self.dtype = minimal_int_dtype(self.n)
        self.fwd = fwd
        self.rev = rev

    def reverse_closure(
        self, seeds: np.ndarray, allowed: np.ndarray | None = None
    ) -> np.ndarray:
        """Nodes that can reach ``seeds`` (seeds included), optionally
        only via nodes satisfying ``allowed`` (seeds are not filtered)."""
        return self._walk(partial(csr_neighbors, *self.rev), seeds, allowed)

    def path_between(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        allowed: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Node ids of a shortest path from ``sources`` into ``targets``.

        BFS with parent tracking over the forward CSR: intermediate and
        target nodes must satisfy ``allowed`` when given (source nodes are
        not filtered, matching the closure kernels).  Returns the path as
        an ``int64`` array (first entry a source, last a target), or
        ``None`` when no such path exists.  This is the witness-path
        kernel behind the *confining path* diagnostics of the leads-to
        checkers: with ``allowed = ¬q`` it exhibits a concrete
        ``¬q``-confined walk from a violating state into a fair SCC.
        """
        src_idx = np.flatnonzero(sources)
        if src_idx.size == 0:
            return None
        hit = src_idx[targets[src_idx]]
        if hit.size:
            return np.array([int(hit[0])], dtype=np.int64)
        indptr, nbr = self.fwd
        # Node-id-sized parents (int32 whenever the graph fits): the only
        # O(n) scratch of this kernel, kept no wider than the CSR itself.
        parent = np.full(self.n, -1, dtype=self.dtype)
        visited = sources.astype(bool).copy()
        frontier = src_idx
        while frontier.size:
            deg = (indptr[frontier + 1] - indptr[frontier]).astype(np.int64)
            cand = csr_neighbors(indptr, nbr, frontier).astype(
                np.int64, copy=False
            )
            step_src = np.repeat(frontier, deg)
            keep = ~visited[cand]
            if allowed is not None:
                keep &= allowed[cand]
            cand = cand[keep]
            step_src = step_src[keep]
            if cand.size == 0:
                return None
            # Keep the first producing edge per node (deterministic in
            # frontier order) so the parent chain is well defined.
            uniq, first = np.unique(cand, return_index=True)
            parent[uniq] = step_src[first]
            visited[uniq] = True
            hit = uniq[targets[uniq]]
            if hit.size:
                node = int(hit[0])
                path = [node]
                while parent[node] >= 0:
                    node = int(parent[node])
                    path.append(node)
                path.reverse()
                return np.array(path, dtype=np.int64)
            frontier = uniq
        return None


class GraphBackend(_FrontierWalk):
    """Table walks and memoized SCC condensations over the successor
    tables of a program (or of a reachable subspace, on local ids).

    Obtain via :meth:`repro.semantics.transition.TransitionSystem.graph`
    or :meth:`repro.semantics.sparse.explorer.ReachableSubspace.graph`
    rather than constructing directly, so the condensation memo is
    shared by every checker that touches the same program.
    """

    def __init__(self, n: int, tables: list[np.ndarray]) -> None:
        if n > _dense_max():
            raise CapacityError(
                f"a graph backend over {n} nodes exceeds the dense capacity "
                f"{_dense_max()} (see StateSpace.DENSE_MAX); spaces this "
                "large route through the sparse tier, whose local "
                "backends index only discovered states"
            )
        super().__init__(n)
        self._tables = tables
        self._cond_cache: OrderedDict[bytes, Condensation] = OrderedDict()

    # -- table walks --------------------------------------------------------

    def _successors(self, frontier: np.ndarray) -> np.ndarray:
        """Every table's successor of every frontier node (duplicates and
        self-moves included; the walk filters them)."""
        if not self._tables:
            return frontier[:0]
        return np.concatenate([t[frontier] for t in self._tables])

    def table_closure(
        self, seeds: np.ndarray, allowed: np.ndarray | None = None
    ) -> np.ndarray:
        """States reachable from ``seeds`` (seeds included), optionally
        only through states satisfying ``allowed`` (seeds are not
        filtered).

        One gather per table and BFS level, on the frontier only.  This
        is how the explorer finds the reachable states and the leads-to
        analysis its cone.
        """
        return self._walk(self._successors, seeds, allowed)

    def distances(self, start: np.ndarray) -> np.ndarray:
        """BFS distance (in command applications) from the ``start`` mask;
        unreachable states get ``-1``.  The same walk as
        :meth:`table_closure`, recording each state's level."""
        dist = np.full(self.n, -1, dtype=np.int64)
        dist[start] = 0
        self._walk(self._successors, start, None, dist)
        return dist

    # -- SCC ----------------------------------------------------------------

    #: Number of per-mask condensations to memoize.  Repeated ``p ↝ q``
    #: checks against the same ``q`` (the normal shape of a proof chain)
    #: hit the same ``¬q`` mask every time; a handful of entries covers
    #: the interleaved q's of a typical session without holding dead masks.
    COND_CACHE_SIZE = 8

    #: Skip memoization entirely above this node count: each cached
    #: Condensation pins a length-``n`` ``comp_id`` plus member arrays
    #: and its masked sub-CSR, and on forced-dense giant spaces 8 of
    #: those would dwarf the tables themselves.  (Spaces that large
    #: normally route to the sparse tier, whose local backends sit far
    #: below this bound.)
    COND_CACHE_MAX_NODES = 8_000_000

    def condensation(self, mask: np.ndarray) -> Condensation:
        """SCC condensation of the subgraph induced by ``mask``, emitted in
        the canonical sinks-first order (:mod:`repro.semantics.scc`).

        The masked sub-CSR is built from the successor tables on the
        masked states only (:func:`~repro.semantics.scc.sub_csr_from_tables`),
        so a small mask costs work in its own size; it rides along as the
        result's ``subgraph`` (:class:`MaskedSubgraph`) for reverse
        closures and paths inside the mask.

        Memoized by a digest of the mask bits (LRU of
        :data:`COND_CACHE_SIZE` entries, bypassed above
        :data:`COND_CACHE_MAX_NODES` nodes), so repeated queries against
        the same mask skip both the sub-CSR extraction and the
        decomposition.  Each entry is published with one assignment,
        complete with its subgraph.
        """
        rec = obs.get_recorder()
        key = None
        if self.n <= self.COND_CACHE_MAX_NODES:
            key = hashlib.blake2b(
                np.packbits(mask).tobytes(), digest_size=16
            ).digest()
            hit = self._cond_cache.get(key)
            if hit is not None:
                self._cond_cache.move_to_end(key)
                if rec.enabled:
                    rec.add("graph.condensation.hits")
                return hit
        if rec.enabled:
            rec.add("graph.condensation.misses")
        with rec.span("graph.condensation", nodes=int(np.count_nonzero(mask))):
            nodes, fp, fn, rp, rn = sub_csr_from_tables(mask, self._tables)
            cond = condense_subgraph(self.n, nodes, fp, fn, rp, rn)
            cond.subgraph = MaskedSubgraph(nodes, (fp, fn), (rp, rn))
            if rec.enabled:
                rec.add("graph.condensation.components", int(cond.count))
        if key is not None:
            self._cond_cache[key] = cond
            if len(self._cond_cache) > self.COND_CACHE_SIZE:
                self._cond_cache.popitem(last=False)
        return cond

    def __repr__(self) -> str:
        return (
            f"<GraphBackend {self.n} states, {len(self._tables)} tables, "
            f"{len(self._cond_cache)} condensations>"
        )
