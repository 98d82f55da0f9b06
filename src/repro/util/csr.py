"""Compressed-sparse-row (CSR) graph kernels.

The semantic engine stores the union transition graph of a program as a
pair of CSR adjacency structures (forward and reverse); every reachability,
closure, and SCC computation is a sequence of the array kernels below, with
Python work proportional to the number of BFS *levels*, never to the number
of nodes or edges.

A CSR adjacency is the pair ``(indptr, nbr)``: the neighbors of node ``v``
are ``nbr[indptr[v]:indptr[v + 1]]``.  ``indptr`` is always ``int64``
(cumulative edge counts can exceed the node dtype); ``nbr`` holds node ids
in the minimal signed dtype for the space (``int32`` whenever the node
count fits, halving memory traffic on large spaces — see
:func:`minimal_int_dtype`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "minimal_int_dtype",
    "sorted_unique",
    "in_sorted",
    "build_csr",
    "dedup_edges",
    "union_edges",
    "csr_neighbors",
]


def minimal_int_dtype(n: int) -> np.dtype:
    """Smallest signed integer dtype able to index ``n`` nodes."""
    return np.dtype(np.int32) if n < 2**31 else np.dtype(np.int64)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``values`` (flattened), same dtype.

    The engine's set kernel: sort, then keep each element that differs
    from its predecessor.  It returns exactly what a flag-less
    ``np.unique`` returns, but numpy 2.4 answers that call with a hash
    table, which on int32/int64 node ids is 20-70× slower than sort +
    adjacent compare (``docs/architecture.md``, Tier 2).  ``np.unique``
    with ``return_index`` / ``return_inverse`` / ``return_counts``
    already takes numpy's sort path and stays as it is.
    """
    out = np.sort(values, axis=None)
    if out.size > 1:
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def in_sorted(sorted_arr: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Membership mask of ``vals`` in the sorted array ``sorted_arr``.

    The binary-search membership kernel shared by the sparse explorer's
    interning BFS and the support-backed predicates
    (:class:`repro.core.predicates.SupportPredicate`).
    """
    if sorted_arr.size == 0:
        return np.zeros(vals.shape[0], dtype=bool)
    pos = np.searchsorted(sorted_arr, vals)
    clipped = np.minimum(pos, sorted_arr.size - 1)
    return (pos < sorted_arr.size) & (sorted_arr[clipped] == vals)


#: Largest node count for which the scalar pair key ``src * n + dst`` stays
#: inside ``int64`` (``isqrt(2**63 - 1)``).  Above it :func:`dedup_edges`
#: switches to the sort-based fallback instead of a 128-bit key.
PAIR_KEY_MAX = 3_037_000_499


def dedup_edges(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Remove duplicate ``(src, dst)`` pairs (edge multiplicity is
    irrelevant to reachability and SCC structure).

    For ``n ≤`` :data:`PAIR_KEY_MAX` pairs are encoded as ``src * n + dst``
    scalars and uniqued in one :func:`sorted_unique` pass.  Beyond that
    the product would need an int128, so the overflow-safe fallback
    lexicographically sorts the pair columns and drops adjacent
    duplicates — same result, no wide key.
    """
    if n <= PAIR_KEY_MAX:
        key = src.astype(np.int64) * np.int64(n) + dst.astype(np.int64)
        key = sorted_unique(key)
        return key // n, key % n
    order = np.lexsort((dst, src))
    s = src[order].astype(np.int64, copy=False)
    d = dst[order].astype(np.int64, copy=False)
    if s.size:
        keep = np.empty(s.size, dtype=bool)
        keep[0] = True
        keep[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
        s, d = s[keep], d[keep]
    return s, d


#: Node count above which :func:`union_edges` switches from the
#: single-pass gather to the two-pass preallocated accumulation (the
#: single pass recomputes nothing but briefly holds every per-table
#: scratch array at once, which only matters near the dense capacity).
UNION_TWO_PASS_MIN = 1 << 20


def union_edges(
    n: int, tables: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated union edge set of successor ``tables``, self-loops
    dropped, accumulated **chunked per command**.

    Above :data:`UNION_TWO_PASS_MIN` nodes this runs two passes over the
    tables: the first only counts moved states per table, the second
    writes each table's ``(src, dst)`` pairs into its slice of one
    preallocated edge-list pair.  Peak scratch is the edge list plus a
    single boolean mask — roughly half the old
    concatenate-a-list-of-per-command-arrays peak, which is what keeps
    union-CSR assembly feasible for spaces near ``StateSpace.DENSE_MAX``.
    Small graphs keep the cheaper single pass.
    """
    base = np.arange(n, dtype=np.int64)
    if n < UNION_TWO_PASS_MIN:
        srcs, dsts = [], []
        for table in tables:
            moved = table != base
            srcs.append(base[moved])
            dsts.append(table[moved])
        src = np.concatenate(srcs) if srcs else base[:0]
        dst = np.concatenate(dsts) if dsts else base[:0]
        return dedup_edges(src, dst, n)
    counts = [int(np.count_nonzero(table != base)) for table in tables]
    total = sum(counts)
    src = np.empty(total, dtype=np.int64)
    dst = np.empty(total, dtype=np.int64)
    pos = 0
    for table, count in zip(tables, counts):
        if count == 0:
            continue
        moved = table != base
        src[pos:pos + count] = base[moved]
        dst[pos:pos + count] = table[moved]
        pos += count
    return dedup_edges(src, dst, n)


def build_csr(
    src: np.ndarray, dst: np.ndarray, n: int, dtype: np.dtype | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Build ``(indptr, nbr)`` from an edge list (no implicit dedup).

    Neighbor lists are ordered by source (stable within a source), and
    ``nbr`` is cast to ``dtype`` (default: :func:`minimal_int_dtype`).
    """
    if dtype is None:
        dtype = minimal_int_dtype(n)
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(src, kind="stable")
    nbr = dst[order].astype(dtype, copy=False)
    return indptr, nbr


def csr_neighbors(
    indptr: np.ndarray, nbr: np.ndarray, frontier: np.ndarray
) -> np.ndarray:
    """Concatenated neighbor lists of the ``frontier`` nodes.

    The output is grouped by frontier position (all neighbors of
    ``frontier[0]`` first, then ``frontier[1]``, …) — segment ids for the
    groups are ``np.repeat(np.arange(len(frontier)), counts)``.
    """
    k = frontier.shape[0]
    if k == 0:
        return nbr[:0]
    # Narrow frontiers (deep BFS levels, Kahn peels) skip the gather
    # machinery: direct slices are an order of magnitude cheaper.
    if k == 1:
        v = frontier[0]
        return nbr[indptr[v]:indptr[v + 1]]
    if k <= 4:
        return np.concatenate([nbr[indptr[v]:indptr[v + 1]] for v in frontier])
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return nbr[:0]
    base = np.repeat(starts, counts)
    within = np.arange(total, dtype=np.int64)
    within -= np.repeat(np.cumsum(counts) - counts, counts)
    return nbr[base + within]
