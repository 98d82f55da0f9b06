"""Shared CSR graph backend for the semantic engine.

The engine has two storage tiers for a program's transition relation:

1. **Dense successor tables** (:class:`~repro.semantics.transition.
   TransitionSystem`): one ``int64`` array per command, exact command
   identity preserved.  Used where *which* command moves matters —
   fairness criteria, weakest preconditions, simulation.
2. **Union CSR graph** (this module): the command-agnostic edge set
   ``{s → t : t = table_c[s] for some c, t ≠ s}``, deduplicated and stored
   as forward + reverse CSR adjacency with dtype-minimized node ids
   (``int32`` whenever the space fits).  Used where only *connectivity*
   matters — reachability, distance maps, reverse closures, SCCs.

The backend is built lazily, **once per** :class:`TransitionSystem` (which
is itself weakly cached per program), so every liveness query after the
first reuses the same adjacency instead of re-deriving it from the tables.
Self-loops are dropped at construction: they are irrelevant to
reachability and SCC structure, and fairness (where self-moves *do*
matter) is evaluated on the dense tier.

All traversals use boolean-mask frontiers — duplicate successors are
collapsed by an O(frontier) scatter, or on small frontiers by the
sort-based :func:`~repro.util.csr.sorted_unique` set kernel (never a
flag-less ``np.unique``, which numpy 2.4 runs through a much slower
hash table), and never by repeated per-table sort+dedup rounds.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from repro import obs
from repro.errors import CapacityError
from repro.semantics.scc import Condensation, condense_subgraph
from repro.util.csr import (
    build_csr,
    csr_neighbors,
    masked_subgraph,
    minimal_int_dtype,
    sorted_unique,
    union_edges,
)

__all__ = ["GraphBackend"]

#: Node-count capacity of a dense union CSR; reads the single policy
#: source ``StateSpace.DENSE_MAX`` at call time (imported lazily to keep
#: this module free of core imports at definition time).
def _dense_max() -> int:
    from repro.core.state import StateSpace

    return StateSpace.DENSE_MAX


class GraphBackend:
    """Cached forward/reverse CSR view of a program's union transition graph.

    Obtain via :meth:`repro.semantics.transition.TransitionSystem.graph`
    rather than constructing directly, so the adjacency is shared by every
    checker that touches the same program.
    """

    def __init__(self, n: int, tables: list[np.ndarray]) -> None:
        if n > _dense_max():
            raise CapacityError(
                f"a union CSR over {n} nodes exceeds the dense capacity "
                f"{_dense_max()} (see StateSpace.DENSE_MAX); spaces this "
                "large route through the sparse tier, whose local "
                "backends index only discovered states"
            )
        self.n = n
        self.dtype = minimal_int_dtype(n)
        self._tables = tables
        self._fwd: tuple[np.ndarray, np.ndarray] | None = None
        self._rev: tuple[np.ndarray, np.ndarray] | None = None
        self._scratch: np.ndarray | None = None
        self._cond_cache: OrderedDict[bytes, Condensation] = OrderedDict()

    # -- construction -------------------------------------------------------

    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        # Chunked per command: each table's moved pairs land in a
        # preallocated slice instead of a concatenated list of scratch
        # arrays (see :func:`repro.util.csr.union_edges`).
        return union_edges(self.n, self._tables)

    def forward_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, nbr)`` of the deduplicated union graph."""
        if self._fwd is None:
            rec = obs.get_recorder()
            with rec.span("graph.union_csr", nodes=self.n):
                src, dst = self._edges()
                fwd = build_csr(src, dst, self.n, dtype=self.dtype)
                # Publish the reverse view first: a concurrent caller that
                # sees ``_fwd`` set must also find ``_rev`` set.
                self._rev = build_csr(dst, src, self.n, dtype=self.dtype)
                self._fwd = fwd
                if rec.enabled:
                    rec.add("graph.union_csr.builds")
                    rec.add("graph.union_csr.edges", int(src.shape[0]))
        return self._fwd

    def reverse_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, nbr)`` of the reversed union graph."""
        if self._rev is None:
            self.forward_csr()
        assert self._rev is not None
        return self._rev

    @property
    def edge_count(self) -> int:
        """Distinct non-self edges of the union graph."""
        indptr, _ = self.forward_csr()
        return int(indptr[-1])

    # -- frontier kernels ----------------------------------------------------

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

    def _closure(
        self,
        csr: tuple[np.ndarray, np.ndarray],
        seeds: np.ndarray,
        allowed: np.ndarray | None,
    ) -> np.ndarray:
        indptr, nbr = csr
        visited = seeds.copy()
        frontier = np.flatnonzero(visited)
        while frontier.size:
            cand = csr_neighbors(indptr, nbr, frontier)
            if allowed is not None:
                cand = cand[allowed[cand]]
            cand = cand[~visited[cand]]
            if cand.size == 0:
                break
            frontier = self._mark_fresh(cand)
            visited[frontier] = True
        return visited

    def forward_closure(
        self, seeds: np.ndarray, allowed: np.ndarray | None = None
    ) -> np.ndarray:
        """States reachable from ``seeds`` (seeds included), optionally
        only via states satisfying ``allowed`` (seeds are not filtered)."""
        return self._closure(self.forward_csr(), seeds, allowed)

    def reverse_closure(
        self, seeds: np.ndarray, allowed: np.ndarray | None = None
    ) -> np.ndarray:
        """States that can reach ``seeds`` (seeds included), optionally
        only via states satisfying ``allowed`` (seeds are not filtered)."""
        return self._closure(self.reverse_csr(), seeds, allowed)

    def distances(self, start: np.ndarray) -> np.ndarray:
        """BFS distance (in command applications) from the ``start`` mask;
        unreachable states get ``-1``."""
        indptr, nbr = self.forward_csr()
        dist = np.full(self.n, -1, dtype=np.int64)
        dist[start] = 0
        frontier = np.flatnonzero(start)
        level = 0
        while frontier.size:
            level += 1
            cand = csr_neighbors(indptr, nbr, frontier)
            cand = cand[dist[cand] < 0]
            if cand.size == 0:
                break
            frontier = self._mark_fresh(cand)
            dist[frontier] = level
        return dist

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
        indptr, nbr = self.forward_csr()
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

    # -- SCC ----------------------------------------------------------------

    #: Number of per-mask condensations to memoize.  Repeated ``p ↝ q``
    #: checks against the same ``q`` (the normal shape of a proof chain)
    #: hit the same ``¬q`` mask every time; a handful of entries covers
    #: the interleaved q's of a typical session without holding dead masks.
    COND_CACHE_SIZE = 8

    #: Skip memoization entirely above this node count: each cached
    #: Condensation pins a length-``n`` ``comp_id`` plus member arrays,
    #: and on forced-dense giant spaces 8 of those would dwarf the CSR
    #: itself.  (Spaces that large normally route to the sparse tier,
    #: whose local backends sit far below this bound.)
    COND_CACHE_MAX_NODES = 8_000_000

    def condensation(self, mask: np.ndarray) -> Condensation:
        """SCC condensation of the subgraph induced by ``mask``, emitted in
        the canonical sinks-first order (:mod:`repro.semantics.scc`).

        Memoized by a digest of the mask bits (LRU of
        :data:`COND_CACHE_SIZE` entries, bypassed above
        :data:`COND_CACHE_MAX_NODES` nodes), so repeated queries against
        the same predicate mask skip both the masked sub-CSR extraction
        and the decomposition.
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
        with rec.span("graph.condensation", nodes=self.n):
            fp_full, fn_full = self.forward_csr()
            fp, fn, nodes = masked_subgraph(fp_full, fn_full, mask)
            # Reverse view of the subgraph from its own edge list — cheaper
            # than a second masked extraction over the full reverse CSR.
            sub_src = np.repeat(np.arange(nodes.shape[0], dtype=np.int64), np.diff(fp))
            rp, rn = build_csr(fn, sub_src, nodes.shape[0], dtype=fn.dtype)
            cond = condense_subgraph(self.n, nodes, fp, fn, rp, rn)
            if rec.enabled:
                rec.add("graph.condensation.components", int(cond.count))
        if key is not None:
            self._cond_cache[key] = cond
            if len(self._cond_cache) > self.COND_CACHE_SIZE:
                self._cond_cache.popitem(last=False)
        return cond

    def __repr__(self) -> str:
        built = "built" if self._fwd is not None else "lazy"
        return f"<GraphBackend {self.n} states, {built}>"
