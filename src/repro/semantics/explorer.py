"""Reachable-state exploration (breadth-first over the successor tables).

The paper's property semantics is *inductive* (quantified over all states);
reachability enters only for the weaker convenience notion
``check_reachable_invariant`` and for diagnostics.  Exploration walks the
program's successor tables (:meth:`repro.semantics.graph_backend.
GraphBackend.table_closure`): each BFS level is one gather per table over
the frontier, deduplicated by a boolean-mask scatter on wide frontiers
and by the sort-based :func:`~repro.util.csr.sorted_unique` set kernel on
narrow ones — no per-table dedup rounds, no flag-less ``np.unique`` and
no whole-space adjacency.
"""

from __future__ import annotations

import numpy as np

from repro.core.program import Program
from repro.core.state import State
from repro.errors import ExplorationError
from repro.semantics.transition import TransitionSystem

__all__ = ["reachable_mask", "reachable_states", "distance_map"]


def reachable_mask(
    program: Program, *, from_mask: np.ndarray | None = None
) -> np.ndarray:
    """Boolean mask of states reachable from the initial states.

    ``from_mask`` overrides the start set (default: the ``initially``
    predicate's satisfaction mask).
    """
    ts = TransitionSystem.for_program(program)
    start = (
        program.initial_mask()
        if from_mask is None
        else np.asarray(from_mask, dtype=bool)
    )
    return ts.graph().table_closure(start)


def reachable_states(program: Program, *, limit: int = 10_000) -> list[State]:
    """Decoded reachable states (guarded by ``limit`` to avoid surprises).

    The states come from the domain
    :func:`~repro.semantics.domain.domain_for` routes to, so spaces above
    the sparse threshold enumerate through the sparse explorer and the
    decoded list never requires a full-space mask.  Raises
    :class:`repro.errors.ExplorationError` when the reachable set exceeds
    ``limit``.
    """
    from repro.semantics.domain import FullSpace, domain_for

    domain = domain_for(program, "reachable_states")
    idx = domain.to_global(np.flatnonzero(domain.reachable_mask()))
    sparse = not isinstance(domain, FullSpace)
    if idx.size > limit:
        hint = (
            "raise limit, or explore through the sparse tier "
            "(repro.semantics.sparse.explore caps work by node_limit, "
            "never by encoded size)"
            if sparse
            else "work with the mask instead"
        )
        raise ExplorationError(
            f"{idx.size} reachable states exceed limit={limit}; {hint}"
        )
    return [program.space.state_at(int(i)) for i in idx]


def distance_map(
    program: Program, *, from_mask: np.ndarray | None = None
) -> np.ndarray:
    """BFS distance (in command applications) from the start set;
    unreachable states get ``-1``.  Used by diagnostics and benchmarks."""
    ts = TransitionSystem.for_program(program)
    start = (
        program.initial_mask() if from_mask is None else np.asarray(from_mask, bool)
    )
    return ts.graph().distances(start)
