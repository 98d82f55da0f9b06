"""Vectorized strongly-connected-components over masked transition graphs.

Used by the leads-to model checker (:mod:`repro.semantics.leadsto`): the
``¬q``-restricted transition graph is decomposed into SCCs, and weak
fairness reduces to a per-SCC edge criterion.

Algorithm.  The subgraph induced by ``mask`` (self-loops and duplicate
edges dropped — neither affects SCC structure) is decomposed in two
array-level stages:

1. **Trim**: iteratively peel nodes whose in- or out-degree within the
   remaining subgraph is zero.  Such nodes lie on no cycle, so each is a
   singleton SCC.  One peel round is a constant number of NumPy kernels;
   DAG-like regions (the common case for liveness proofs, e.g. ladder and
   priority programs) dissolve entirely here.
2. **Forward–backward**: for each remaining partition, pick a pivot and
   intersect its forward- and backward-reachable sets (CSR frontier BFS,
   one NumPy round per level).  The intersection is the pivot's SCC; the
   three remainders (forward-only, backward-only, untouched) are
   independent partitions and recurse via an explicit worklist.

Python work is O(1) per BFS *level* / peel round / partition — never per
node or per edge.

Emission-order invariant (relied on by :mod:`repro.semantics.synthesis`,
which turns the order directly into the variant-metric levels of the
induction certificate):

    ``comp_id`` follows **reverse topological order** of the condensation
    — sinks first; every edge between distinct SCCs goes from a higher
    ``comp_id`` to a lower one.

The invariant is established explicitly by a vectorized Kahn pass over the
condensed DAG (peel sink components level by level), with ties inside a
level broken by smallest member state, making the order *canonical*: any
correct SCC partition yields the same ``Condensation``.  Canonicity is
what makes the invariant **tier-portable**: the sparse engine's local-id
sub-CSR preserves global index order (``ReachableSubspace.global_ids``
is sorted), so "smallest member" names the same state on both tiers and
the local condensation of ``reach ∧ mask`` equals the dense one
component for component — sparse-synthesized certificates therefore
carry the same variant metric as dense ones (see ``docs/proofs.md``).
The legacy explicit-stack Tarjan is kept as :func:`tarjan_condensation`,
the reference oracle for randomized differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.util.csr import (
    build_csr,
    csr_neighbors,
    dedup_edges,
    minimal_int_dtype,
    sorted_unique,
)

__all__ = [
    "Condensation",
    "condensation",
    "condense_subgraph",
    "canonicalize",
    "tarjan_condensation",
]


@dataclass
class Condensation:
    """SCC decomposition of a masked subgraph, stored flat (CSR layout).

    Attributes
    ----------
    comp_id:
        Array of length ``n``; SCC index per state (``-1`` outside the mask).
        Indices follow emission order: edges between distinct SCCs always go
        from higher ``comp_id`` to lower.
    members:
        Every masked state, grouped by SCC in emission order and sorted
        within each SCC.
    offsets:
        ``int64`` array of length ``count + 1``: SCC ``k`` is
        ``members[offsets[k]:offsets[k + 1]]`` (see :meth:`members_of`).
    """

    comp_id: np.ndarray
    members: np.ndarray
    offsets: np.ndarray

    @property
    def count(self) -> int:
        """Number of SCCs."""
        return self.offsets.shape[0] - 1

    def members_of(self, k: int) -> np.ndarray:
        """Sorted member states of SCC ``k`` (a view into :attr:`members`)."""
        return self.members[self.offsets[k]:self.offsets[k + 1]]

    def first_members(self) -> np.ndarray:
        """Smallest member state of every SCC, indexed by SCC."""
        return self.members[self.offsets[:-1]]

    @cached_property
    def components(self) -> tuple[np.ndarray, ...]:
        """``components[k] == members_of(k)`` for every SCC, as read-only
        views.  Built on first use: the checkers index :attr:`members` /
        :attr:`offsets` directly, so a condensation with many trimmed
        singletons never pays for one small array per SCC."""
        if self.count == 0:
            return ()
        view = self.members.view()
        view.flags.writeable = False
        return tuple(np.split(view, self.offsets[1:-1]))


# ---------------------------------------------------------------------------
# Subgraph extraction (standalone path; the cached path lives in
# repro.semantics.graph_backend and shares condense_subgraph below).
# ---------------------------------------------------------------------------


def _sub_csr_from_tables(
    mask: np.ndarray, tables: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward and reverse CSR of the masked subgraph, on compacted ids.

    Returns ``(nodes, fp, fn, rp, rn)``.  Self-loops and duplicate edges
    are dropped.
    """
    n = mask.shape[0]
    nodes = np.flatnonzero(mask)
    m = nodes.shape[0]
    dtype = minimal_int_dtype(m)
    remap = np.full(n, -1, dtype=dtype)
    remap[nodes] = np.arange(m, dtype=dtype)
    srcs, dsts = [], []
    for table in tables:
        d = table[nodes]
        keep = mask[d] & (d != nodes)
        srcs.append(remap[nodes[keep]])
        dsts.append(remap[d[keep]])
    src = np.concatenate(srcs) if srcs else np.empty(0, dtype=dtype)
    dst = np.concatenate(dsts) if dsts else np.empty(0, dtype=dtype)
    src, dst = dedup_edges(src, dst, max(m, 1))
    fp, fn = build_csr(src, dst, m, dtype=dtype)
    rp, rn = build_csr(dst, src, m, dtype=dtype)
    return nodes, fp, fn, rp, rn


# ---------------------------------------------------------------------------
# SCC partition (trim + forward-backward)
# ---------------------------------------------------------------------------


def _bfs_partition(
    indptr: np.ndarray,
    nbr: np.ndarray,
    pivot: int,
    plabel: np.ndarray,
    pid: int,
    budget: int,
) -> tuple[np.ndarray | None, int]:
    """Nodes of partition ``pid`` reachable from ``pivot`` (boolean mask).

    Returns ``(mask, levels_used)``; ``mask`` is ``None`` if the BFS ran
    out of its level ``budget`` (the caller falls back to Tarjan).
    """
    vis = np.zeros(plabel.shape[0], dtype=bool)
    vis[pivot] = True
    frontier = np.array([pivot], dtype=np.int64)
    used = 0
    while frontier.size:
        if used >= budget:
            return None, used
        used += 1
        nxt = csr_neighbors(indptr, nbr, frontier)
        nxt = nxt[(plabel[nxt] == pid) & ~vis[nxt]]
        if nxt.size == 0:
            break
        frontier = sorted_unique(nxt)
        vis[frontier] = True
    return vis, used


def _decrement(deg: np.ndarray, targets: np.ndarray, m: int) -> None:
    """``deg[t] -= multiplicity of t in targets`` — ``subtract.at`` for
    sparse target sets, a bincount pass when targets rival the node count."""
    if targets.size * 16 < m:
        np.subtract.at(deg, targets, 1)
    else:
        deg -= np.bincount(targets, minlength=m)


def _tarjan_csr(
    fp: np.ndarray,
    fn: np.ndarray,
    plabel: np.ndarray,
    labels: np.ndarray,
    next_label: int,
) -> int:
    """Iterative Tarjan over the residual nodes (``plabel >= 0``).

    Escape hatch for residuals made of many small SCCs, where the
    per-partition forward-backward rounds would be slower than one
    O(V + E) sweep.  Writes into ``labels``; returns the next free label.

    Cross-partition edges are safe to follow: forward-backward partitions
    are SCC-closed, so Tarjan over their union finds the same components.
    """
    m = plabel.shape[0]
    in_res = plabel >= 0
    index = np.full(m, -1, dtype=np.int64)
    low = np.zeros(m, dtype=np.int64)
    on_stack = np.zeros(m, dtype=bool)
    counter = 0
    stack: list[int] = []
    work: list[list[int]] = []  # frames: [node, edge-cursor]
    for root in np.flatnonzero(in_res):
        root = int(root)
        if index[root] >= 0:
            continue
        work.append([root, int(fp[root])])
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            frame = work[-1]
            v, cursor = frame
            if cursor < fp[v + 1]:
                frame[1] += 1
                w = int(fn[cursor])
                if not in_res[w]:
                    continue
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append([w, int(fp[w])])
                elif on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    labels[w] = next_label
                    if w == v:
                        break
                next_label += 1
    return next_label


def _scc_labels(
    m: int,
    fp: np.ndarray,
    fn: np.ndarray,
    rp: np.ndarray,
    rn: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Partition the ``m``-node subgraph into SCCs.

    Returns ``(labels, count)`` with arbitrary label numbering (the
    canonical emission order is assigned afterwards by the Kahn pass).
    """
    labels = np.full(m, -1, dtype=np.int64)
    next_label = 0
    active = np.ones(m, dtype=bool)
    outdeg = np.diff(fp).copy()
    indeg = np.diff(rp).copy()

    # Stage 1: trim.  Every peeled node is a singleton SCC.  Degrees are
    # maintained incrementally, so each round only touches the neighbors
    # of the nodes it peels.
    pending = np.flatnonzero((outdeg == 0) | (indeg == 0))
    while pending.size:
        idx = pending
        labels[idx] = np.arange(next_label, next_label + idx.size)
        next_label += idx.size
        active[idx] = False
        succ = csr_neighbors(fp, fn, idx)
        succ = succ[active[succ]]
        if succ.size:
            _decrement(indeg, succ, m)
        pred = csr_neighbors(rp, rn, idx)
        pred = pred[active[pred]]
        if pred.size:
            _decrement(outdeg, pred, m)
        touched = np.concatenate([succ, pred]) if pred.size else succ
        touched = touched[(indeg[touched] == 0) | (outdeg[touched] == 0)]
        pending = sorted_unique(touched)

    # Stage 2: forward-backward splitting of what remains.
    rest = np.flatnonzero(active)
    if rest.size == 0:
        return labels, next_label
    plabel = np.full(m, -1, dtype=np.int64)
    plabel[rest] = 0
    worklist: list[tuple[int, np.ndarray]] = [(0, rest)]
    next_pid = 1
    # Forward-backward earns its keep on residuals with few, fat SCCs
    # (BFS levels ≪ nodes).  Budget the total BFS levels: once the
    # per-level Python overhead would rival one O(V+E) Tarjan sweep —
    # many small SCCs, or huge diameters — finish with Tarjan instead.
    level_budget = max(64, rest.size >> 4)
    while worklist:
        pid, members = worklist.pop()
        if members.size == 1:
            labels[members] = next_label
            next_label += 1
            plabel[members] = -2  # done — a Tarjan fallback must skip it
            continue
        # Middle pivot: on chain-shaped partitions it splits roughly in
        # half; a first-member pivot would re-walk the whole chain to
        # remove a single SCC (quadratic).
        pivot = int(members[members.size >> 1])
        fwd, used = _bfs_partition(fp, fn, pivot, plabel, pid, level_budget)
        level_budget -= used
        if fwd is not None:
            bwd, used = _bfs_partition(rp, rn, pivot, plabel, pid, level_budget)
            level_budget -= used
        if fwd is None or bwd is None:
            # The popped partition still carries plabel == pid, so the
            # Tarjan sweep over plabel >= 0 covers it and the queue.
            next_label = _tarjan_csr(fp, fn, plabel, labels, next_label)
            break
        in_scc = fwd & bwd
        scc_nodes = np.flatnonzero(in_scc)
        labels[scc_nodes] = next_label
        next_label += 1
        plabel[scc_nodes] = -2
        mem_f = fwd[members]
        mem_b = bwd[members]
        mem_scc = mem_f & mem_b
        for part in (
            members[mem_f & ~mem_scc],
            members[mem_b & ~mem_scc],
            members[~mem_f & ~mem_b],
        ):
            if part.size:
                plabel[part] = next_pid
                worklist.append((next_pid, part))
                next_pid += 1
    return labels, next_label


# ---------------------------------------------------------------------------
# Canonical emission order (vectorized Kahn over the condensed DAG)
# ---------------------------------------------------------------------------


def _emission_order(
    m: int,
    labels: np.ndarray,
    count: int,
    fp: np.ndarray,
    fn: np.ndarray,
) -> np.ndarray:
    """Map SCC label → emission index (sinks first, canonical).

    Kahn's algorithm on the condensed DAG, peeling **sink** components
    level by level; a component's level is thus its longest distance to a
    sink, so every condensed edge goes from a strictly higher level to a
    lower one.  The emission index sorts by ``(level, smallest member)``
    — reverse topological, with ties broken canonically so the order is
    independent of the label numbering produced by the partition stage.
    """
    order_of = np.empty(count, dtype=np.int64)
    if count == 0:
        return order_of
    src_all = np.repeat(np.arange(m, dtype=np.int64), np.diff(fp))
    lu = labels[src_all]
    lv = labels[fn.astype(np.int64, copy=False)]
    cross = lu != lv
    lu, lv = dedup_edges(lu[cross], lv[cross], count)
    # Condensed reverse adjacency: predecessors of each component.
    crp, crn = build_csr(lv, lu, count, dtype=np.dtype(np.int64))
    outdeg = np.bincount(lu, minlength=count)
    # Smallest member node per label — the canonical tie-break key.
    # Reversed scatter: later writes win, so each label keeps its first node.
    first = np.empty(count, dtype=np.int64)
    first[labels[::-1]] = np.arange(m - 1, -1, -1, dtype=np.int64)
    level = np.zeros(count, dtype=np.int64)
    emitted = 0
    lvl = 0
    ready = np.flatnonzero(outdeg == 0)
    while ready.size:
        level[ready] = lvl
        lvl += 1
        emitted += ready.size
        outdeg[ready] = -1
        preds = csr_neighbors(crp, crn, ready)
        if preds.size == 0:
            break
        _decrement(outdeg, preds, count)
        ready = sorted_unique(preds[outdeg[preds] == 0])
    if emitted != count:  # pragma: no cover - the condensation is a DAG
        raise AssertionError("condensed graph is not acyclic")
    order_of[np.lexsort((first, level))] = np.arange(count, dtype=np.int64)
    return order_of


def _package(
    n: int, nodes: np.ndarray, labels: np.ndarray, order_of: np.ndarray
) -> Condensation:
    """Assemble a :class:`Condensation` from labels + emission order."""
    count = order_of.shape[0]
    comp_id = np.full(n, -1, dtype=np.int64)
    rank = order_of[labels] if count else labels
    comp_id[nodes] = rank
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(rank, minlength=count), out=offsets[1:])
    # ``nodes`` ascends, so a stable sort by rank keeps members sorted
    # within each SCC.
    members = nodes[np.argsort(rank, kind="stable")]
    return Condensation(comp_id=comp_id, members=members, offsets=offsets)


def condense_subgraph(
    n: int,
    nodes: np.ndarray,
    fp: np.ndarray,
    fn: np.ndarray,
    rp: np.ndarray,
    rn: np.ndarray,
) -> Condensation:
    """SCC condensation from precomputed subgraph CSRs (compact ids).

    ``nodes`` maps compact id → state index; ``(fp, fn)`` / ``(rp, rn)``
    are the forward / reverse CSR with self-loops and duplicates removed.
    This is the shared core of :func:`condensation` and
    :meth:`repro.semantics.graph_backend.GraphBackend.condensation`.
    """
    m = nodes.shape[0]
    labels, count = _scc_labels(m, fp, fn, rp, rn)
    order_of = _emission_order(m, labels, count, fp, fn)
    return _package(n, nodes, labels, order_of)


def condensation(mask: np.ndarray, tables: list[np.ndarray]) -> Condensation:
    """Vectorized SCCs of the subgraph induced by ``mask``.

    ``tables`` are full-space successor tables; an edge ``s → t[s]`` exists
    iff both endpoints satisfy ``mask``.  Components are emitted in the
    canonical sinks-first order (see module docstring).
    """
    n = mask.shape[0]
    nodes, fp, fn, rp, rn = _sub_csr_from_tables(mask, tables)
    return condense_subgraph(n, nodes, fp, fn, rp, rn)


def canonicalize(
    cond: Condensation, mask: np.ndarray, tables: list[np.ndarray]
) -> Condensation:
    """Re-emit an existing SCC partition in the canonical sinks-first order.

    Useful for differential testing: any valid partition of the same
    subgraph (e.g. from :func:`tarjan_condensation`) canonicalizes to a
    ``Condensation`` equal to the one :func:`condensation` produces.
    """
    n = mask.shape[0]
    nodes, fp, fn, _rp, _rn = _sub_csr_from_tables(mask, tables)
    labels = cond.comp_id[nodes]
    order_of = _emission_order(nodes.shape[0], labels, cond.count, fp, fn)
    return _package(n, nodes, labels, order_of)


# ---------------------------------------------------------------------------
# Legacy Tarjan — the reference oracle for differential tests
# ---------------------------------------------------------------------------


def tarjan_condensation(mask: np.ndarray, tables: list[np.ndarray]) -> Condensation:
    """Explicit-stack Tarjan SCCs of the subgraph induced by ``mask``.

    The original per-node/per-edge implementation, kept as the reference
    oracle: its partition must always agree with :func:`condensation`, and
    its emission order satisfies the same reverse-topological invariant
    (though with Tarjan's DFS-dependent tie-breaking, not the canonical
    one — compare via :func:`canonicalize`).
    """
    n = mask.shape[0]
    comp_id = np.full(n, -1, dtype=np.int64)
    index = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)

    ntables = len(tables)
    counter = 0
    components: list[np.ndarray] = []
    stack: list[int] = []  # Tarjan's SCC stack
    # DFS work stack holds (node, next-edge-cursor) pairs.
    work: list[list[int]] = []

    nodes = np.flatnonzero(mask)
    for root in nodes:
        root = int(root)
        if index[root] >= 0:
            continue
        work.append([root, 0])
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            frame = work[-1]
            v, cursor = frame
            if cursor < ntables:
                frame[1] += 1
                w = int(tables[cursor][v])
                if not mask[w]:
                    continue
                if index[w] < 0:
                    # Tree edge: descend.
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append([w, 0])
                elif on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
                continue
            # All edges of v explored: close the frame.
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                # v is the root of an SCC: pop it off the stack.
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                arr = np.array(sorted(members), dtype=np.int64)
                comp_id[arr] = len(components)
                components.append(arr)
    sizes = np.array([c.size for c in components], dtype=np.int64)
    offsets = np.zeros(len(components) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    flat = np.concatenate(components) if components else np.empty(0, dtype=np.int64)
    return Condensation(comp_id=comp_id, members=flat, offsets=offsets)
