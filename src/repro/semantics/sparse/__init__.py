"""Sparse on-the-fly exploration engine: the semantic engine's sparse tier.

Composition multiplies the *encoded* state space (``F ∘ G ∘ H`` lives in
the product of the component spaces) while the *reachable* set typically
stays a sliver of it — conservation laws, lockstep counters, and locality
all cut exponentially.  The dense tier's successor tables and masks
allocate arrays of length ``space.size`` and therefore stop scaling long
before composition stacks get interesting.  This package is the sparse
tier: it **never allocates a full-space array**.  Categorically, the
product object is queried through its projections — per-variable frontier
decodes — instead of being materialized.

Layout
------
- :mod:`repro.semantics.sparse.explorer` — sparse enumeration of the
  initial states (a vectorized join over the ``initially`` conjuncts),
  breadth-first frontier expansion through ``Command.succ_in`` (the one
  per-command kernel that also builds the dense tables, here fed one
  frontier environment per level, or a gather from the command's
  footprint step memo once built) with sorted-array interning of discovered
  global indices, and the resulting :class:`ReachableSubspace` (global ↔
  local id maps, per-command local successor columns, BFS distances).
  Its ``graph()`` is a :class:`~repro.semantics.graph_backend.GraphBackend`
  over the local columns, so the table walks and the
  :mod:`repro.semantics.scc` condensation run on **local** ids unchanged.
- :mod:`repro.semantics.sparse.checkpoint` — atomic, digest-keyed BFS
  snapshots, which a :class:`CheckpointPolicy` both writes and reads
  (a complete one loads without re-running the BFS).

The judgments themselves live outside this package: a
:class:`ReachableSubspace` is an evaluation *domain*
(:mod:`repro.semantics.domain`), and every judgment of the engine —
validity, ``init``, ``next``, ``stable``, weak and strong ``transient``,
the reachable invariant, leads-to, synthesis and the batched
certificate check — is written once and runs over it unchanged
(``pred_mask`` / ``succ_local`` / ``enabled_local`` / ``graph`` on local
ids, through the frontier kernels).

Routing
-------
:func:`repro.semantics.domain.domain_for` is the single routing rule: it
consults :func:`sparse_enabled` and resolves the reachable subspace when
``space.size > SPARSE_THRESHOLD`` (the full space otherwise, or when the
exploration fails and :func:`dense_fallback` admits it); an explicit
``subspace=`` always wins, and ``tier="sparse"`` / ``"dense"`` force
or refuse the subspace.  Callers of the checkers never need to know
which domain ran.

Semantics note.  The paper's property semantics is *inductive* — it
quantifies over **all** states, reachable or not.  A sparse check can
only ever see the reachable part, so the sparse tier decides the
**reachable-restricted** judgment: ``p ↝ q`` from every *reachable*
``p``-state.  For ``check_reachable_invariant`` the two coincide by
definition; for leads-to the sparse verdict can differ from the dense one
exactly on properties whose counterexamples are unreachable (the
restriction every execution-based interpretation uses anyway).  Each
sparse :class:`~repro.semantics.checker.CheckResult` records the
restriction in its message and witness.

Certification.  Since the sparse tier decides judgments, it also
*certifies* them: :func:`repro.semantics.synthesis.synthesize_leadsto_proof`
builds reachable-restricted induction certificates directly on a
:class:`ReachableSubspace`, with levels that are
:class:`~repro.core.predicates.SupportPredicate` sets of reachable global
indices and leaf obligations discharged over the same subspace.  The
variant metric of those certificates is the **canonical sinks-first SCC
emission order** of :mod:`repro.semantics.scc`, which the
local-id sub-CSR reproduces exactly (``global_ids`` is sorted, so local
ids preserve the global order and every canonical tie-break) — see
``docs/proofs.md`` for the full invariant and its paper cross-references
(§2 proof rules, §4.6 metric induction).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_surface
from repro.errors import CapacityError

if TYPE_CHECKING:
    from repro.core.state import StateSpace

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "explorer": (
            "ReachableSubspace",
            "explore",
            "initial_indices",
            "reachable_subspace",
            "adopt_subspace",
        ),
        "checkpoint": (
            "CheckpointPolicy",
            "cache_path_for",
            "load_checkpoint",
            "program_digest",
            "resume_exploration",
        ),
    },
)
__all__ += ["SPARSE_THRESHOLD", "sparse_enabled", "dense_fallback"]

#: Spaces larger than this are routed to the sparse tier by
#: :func:`repro.semantics.domain.domain_for` (dense masks/tables above it
#: cost tens of MB per array and minutes of table construction).  This is
#: the **public tier knob**:
#: because routing also switches the leads-to judgment to the
#: reachable-restricted one (see above), callers that need the inductive
#: all-states verdict on a large space can set it to ``float("inf")``
#: (force dense, at dense memory cost), and tests set it to ``0``/``1``
#: to force the sparse tier on small spaces.  Passing ``subspace=`` to a
#: checker decides over an explicit subspace regardless of the threshold.
SPARSE_THRESHOLD: float = 1_000_000


def sparse_enabled(space: StateSpace) -> bool:
    """True iff checks over ``space`` should run on the sparse tier."""
    return space.size > SPARSE_THRESHOLD


def dense_fallback(space: StateSpace, dense_op: str, exc: Exception) -> None:
    """Gate the sparse→dense fallback, chaining the sparse failure.

    The single place every fallback site goes through after the sparse
    tier raised ``exc``: returns normally when the space fits the dense
    tier (the caller then runs densely), and re-raises the
    :class:`~repro.errors.CapacityError` **with ``exc`` as its
    ``__cause__``** when it does not — so the original traceback (and any
    checkpoint path riding on it) survives the tier router instead of
    being flattened into a message string.
    """
    try:
        space.require_dense(
            f"the dense fallback for {dense_op} (sparse tier failed: {exc})"
        )
    except CapacityError as cap:
        raise cap from exc
