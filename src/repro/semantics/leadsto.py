"""Model checking ``p ↝ q`` under weak fairness (fair-SCC analysis).

Semantics.  An execution repeatedly applies commands from ``C``; weak
fairness requires every command of ``D`` to be applied infinitely often
(commands are total and always enabled, so weak and unconditional fairness
coincide).  ``p ↝ q`` holds iff every fair execution starting from any
``p``-state reaches a ``q``-state.

Finite-state characterization.  ``p ↝ q`` fails iff some ``p``-state can
reach — inside ``¬q`` — a **fair SCC**: a strongly connected component
``H`` of the ``¬q``-restricted transition graph such that *every* ``d ∈ D``
has an edge with both endpoints in ``H``.

*Soundness:* inside a fair SCC the scheduler can tour all the required
``d``-edges forever (strong connectivity supplies the connecting walks, and
``skip ∈ C`` supplies waiting moves), yielding a fair execution that never
reaches ``q``.  *Completeness:* the limit set of any fair ``¬q``-confined
execution is strongly connected and, for each ``d ∈ D``, contains a state
whose ``d``-successor is also in the limit set (``d`` fires infinitely often
from finitely many states); hence the limit set lies inside a fair SCC,
which the start state therefore reaches.

The analysis returned by :func:`fair_analysis` also drives the proof
synthesizer (:mod:`repro.semantics.synthesis`): in the complement region
every SCC misses some ``d ∈ D`` entirely, which is exactly a
``transient``/``ensures`` step of the paper's proof system.

Implementation.  :func:`fair_analysis` is written once against an
evaluation domain (:mod:`repro.semantics.domain`): the full space, whose
verdicts are the paper's inductive judgment, or a reachable subspace,
whose verdicts are reachable-restricted.  Only the *cone* of
``p ∧ ¬q`` — the states reachable from it inside ``¬q`` — is analysed:
a ``¬q``-confined walk from a ``p``-state never leaves it, and a
``¬q``-SCC that meets it lies inside it, so the verdict and witnesses
are those of the whole ``¬q`` subgraph at the cost of the cone.  All
graph work (SCC condensation, reverse closure, confining paths) runs
on the cone's sub-CSR, built from the domain's successor columns by its
graph backend (:mod:`repro.semantics.graph_backend`); the fair-SCC
criterion is evaluated **batched** over a stacked ``(command, state)``
edge matrix — an edge ``s → d(s)`` is internal to its SCC iff
``comp_id[d(s)] == comp_id[s]`` — with a single segmented scatter into
the ``(command, SCC)`` flag plane (:func:`_fair_flags`), instead of one
scatter round per command.  The same helper evaluates the
strong-fairness criterion (:mod:`repro.semantics.strong_fairness`) when
handed enabledness rows.

Spaces above :data:`repro.semantics.sparse.SPARSE_THRESHOLD` resolve to
the reachable subspace, which decides the reachable-restricted judgment
without allocating full-space arrays (see the :mod:`repro.semantics.sparse`
package docstring for the exact semantics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.semantics.checker import CheckResult
from repro.semantics.domain import domain_for
from repro.semantics.scc import Condensation

__all__ = ["FairAnalysis", "fair_analysis", "check_leadsto"]


@dataclass
class FairAnalysis:
    """Fairness analysis of ``p ↝ q`` on the cone of ``p ∧ ¬q``.

    The *cone* is the set of states reachable from ``p ∧ ¬q`` through
    ``¬q``-states: every ``¬q``-confined walk from a ``p``-state stays in
    it, and every SCC of the ``¬q`` subgraph that meets it lies inside
    it, so the cone decides the judgment exactly as the whole ``¬q``
    subgraph would.  With ``p = TRUE`` the cone is all of ``¬q``.

    Every array is indexed by the domain's local ids (global indices on
    the full space).

    Attributes
    ----------
    domain:
        The analysed domain (:mod:`repro.semantics.domain`).
    p_mask, q_mask, notq_mask:
        Satisfaction masks of ``p``, ``q`` and ``¬q``.
    cone_mask:
        The cone: states reachable from ``p ∧ ¬q`` inside ``¬q``.
    cond:
        SCC condensation of the cone (emission order = sinks first; see
        :mod:`repro.semantics.scc`).  The cone is forward-closed inside
        ``¬q``, so its order is the whole-``¬q`` order restricted to it;
        only the SCC indices are cone-local.  On a reachable subspace it
        equals the full-space condensation restricted to reachable
        states, because local ids preserve global order.
    fair_flags:
        ``fair_flags[k]`` — SCC ``k`` satisfies the fair-SCC criterion
        (weak or strong, depending on how the analysis was built).
    avoid_mask:
        Cone states that can reach a fair SCC inside ``¬q`` — exactly the
        cone states from which the scheduler can avoid ``q`` forever.
    safe_mask:
        Cone states from which ``q`` is inevitable
        (``cone_mask & ~avoid_mask``).
    """

    domain: Any
    p_mask: np.ndarray
    q_mask: np.ndarray
    notq_mask: np.ndarray
    cone_mask: np.ndarray
    cond: Condensation
    fair_flags: np.ndarray
    avoid_mask: np.ndarray

    @property
    def safe_mask(self) -> np.ndarray:
        return self.cone_mask & ~self.avoid_mask

    def safe_components(self) -> list[tuple[int, np.ndarray]]:
        """``(comp_id, members)`` for SCCs in the safe region, in emission
        (sinks-first) order — the levels of the synthesized induction."""
        safe = np.flatnonzero(~self.avoid_mask[self.cond.first_members()])
        return [(int(k), self.cond.members_of(k)) for k in safe]

    def confining_path(self, k: int) -> np.ndarray | None:
        """Local ids of a shortest ``¬q``-confined walk from state ``k``
        into a fair SCC — the scheduler's avoidance strategy, state by
        state (``None`` when ``k`` reaches no fair SCC)."""
        if not self.avoid_mask[k]:
            return None
        sub = self.cond.subgraph
        sources = np.zeros(sub.n, dtype=bool)
        sources[np.searchsorted(sub.nodes, k)] = True
        path = sub.path_between(sources, _fair_seeds(self.cond, self.fair_flags))
        return sub.nodes[path]


#: Byte budget of one stacked (command, state) chunk in :func:`_fair_flags`.
_FAIR_CHUNK_BYTES = 16 << 20


def _fair_seeds(cond: Condensation, fair_flags: np.ndarray) -> np.ndarray:
    """Which nodes of ``cond.subgraph`` (compact ids) lie in a flagged
    SCC (vectorized gather)."""
    return fair_flags[cond.comp_id[cond.subgraph.nodes]]


def _fair_flags(
    cond: Condensation,
    tables: list[np.ndarray],
    enabled: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Per-SCC fairness flags, batched over all commands of ``D`` at once.

    ``tables`` are successor arrays over the graph's node set (full-space
    tables on the dense tier, local columns on the sparse tier).  The
    ``(command, state)`` internal-edge matrix is stacked per chunk and
    condensed in one pass into the ``(command, SCC)`` flag plane, with
    one ``all(axis=0)`` reduction per chunk instead of per-command
    flag-combination rounds.

    With ``enabled`` absent this is the *weak*-fairness criterion: SCC
    ``k`` keeps its flag iff every ``d ∈ D`` has an edge with both
    endpoints in ``k`` (disabled self-moves included).  With ``enabled``
    (per command, one boolean row over the graph's nodes — or a callable
    mapping the condensed node ids to their enabledness) it is the
    *strong* criterion: for every ``d``, either no member enables ``d``,
    or some member enables ``d`` with its ``d``-successor inside ``k``.
    Callables are evaluated one at a time and only until the flags die,
    at the condensed nodes only, so enabledness streams instead of being
    materialized up front.
    """
    count = cond.count
    ncmd = len(tables)
    if ncmd == 0 or count == 0:
        return np.ones(count, dtype=bool)
    # Every condensed node, grouped by SCC (the order is irrelevant to
    # the scatters below).
    act_idx = cond.members
    comp_act = cond.comp_id[act_idx]
    # Chunk the command axis so the stacked matrix stays bounded (~16 MB)
    # on large dense spaces, and dead flag planes short-circuit between
    # chunks; typical |D| fits in one chunk, i.e. one segmented pass.
    chunk = max(1, _FAIR_CHUNK_BYTES // max(act_idx.shape[0], 1))
    flags = np.ones(count, dtype=bool)
    for lo in range(0, ncmd, chunk):
        rows = tables[lo:lo + chunk]
        internal = np.empty((len(rows), act_idx.shape[0]), dtype=bool)
        for r, table in enumerate(rows):
            internal[r] = cond.comp_id[table[act_idx]] == comp_act
        # Row-wise scatters into the (command, SCC) planes: internal is
        # mostly-True on liveness subgraphs (disabled commands self-loop),
        # so a matrix-wide nonzero would materialize int64 coordinate
        # arrays far larger than the bool chunk itself.
        if enabled is None:
            has_edge = np.zeros((len(rows), count), dtype=bool)
            for r in range(len(rows)):
                has_edge[r, comp_act[internal[r]]] = True
            flags &= has_edge.all(axis=0)
        else:
            # Per-row reduction with a short circuit: each enabledness
            # row (possibly a lazy evaluation) is built only while some
            # flag is still alive.
            for r, e in enumerate(enabled[lo:lo + chunk]):
                en_r = e(act_idx) if callable(e) else e[act_idx]
                has_enabled = np.zeros(count, dtype=bool)
                has_enabled[comp_act[en_r]] = True
                honored = np.zeros(count, dtype=bool)
                honored[comp_act[internal[r] & en_r]] = True
                flags &= ~has_enabled | honored
                if not flags.any():
                    break
        if not flags.any():
            break
    return flags




def fair_analysis(
    domain, p: Predicate, q: Predicate, *, strong: bool = False
) -> FairAnalysis:
    """Analyse the cone of ``p ∧ ¬q`` in ``domain`` for fair avoidance.

    The cone (states reachable from ``p ∧ ¬q`` through ``¬q``-states) is
    found by a frontier walk over the domain's successor columns, and
    only it is condensed: SCCs, fair flags, the avoid closure and
    confining paths all run on its sub-CSR, never on the whole ``¬q``
    subgraph.  ``fair_analysis(domain, TRUE, q)`` is the whole-``¬q``
    analysis.

    With ``strong=True`` the per-SCC criterion is the strong-fairness one
    (:mod:`repro.semantics.strong_fairness`): an SCC stays fair iff for
    every ``d`` it either never enables ``d`` or contains an enabled
    ``d``-move staying inside it.  Shared by both leads-to checkers and
    the proof synthesizer (:mod:`repro.semantics.synthesis`), which turns
    ``cond``'s canonical sinks-first emission order directly into the
    variant metric of its induction certificates.
    """
    graph = domain.graph()
    p_mask = domain.pred_mask(p)
    q_mask = domain.pred_mask(q)
    notq = ~q_mask
    cone = graph.table_closure(p_mask & notq, notq)
    cond = graph.condensation(cone)
    fair_cmds = domain.program.fair_commands
    # Enabledness rows stream lazily, at the cone's states only: each is
    # built only when its chunk is reached, and not at all once the
    # flags die.
    enabled = (
        [(lambda ids, c=cmd: domain.enabled_at(c, ids)) for cmd in fair_cmds]
        if strong
        else None
    )
    flags = _fair_flags(
        cond, [domain.succ_local(cmd) for cmd in fair_cmds], enabled=enabled
    )
    sub = cond.subgraph
    avoid = np.zeros(domain.size, dtype=bool)
    avoid[sub.nodes] = sub.reverse_closure(_fair_seeds(cond, flags))
    return FairAnalysis(domain, p_mask, q_mask, notq, cone, cond, flags, avoid)


def leadsto_judgment(
    program: Program,
    p: Predicate,
    q: Predicate,
    *,
    strong: bool,
    subspace=None,
) -> CheckResult:
    """``p ↝ q`` under weak or strong fairness, over the resolved domain.

    The shared body of :func:`check_leadsto` and
    :func:`repro.semantics.strong_fairness.check_leadsto_strong`.
    """
    fairness = "strong" if strong else "weak"
    kind = "leadsto-strong" if strong else "leadsto"
    arrow = "~>[strong]" if strong else "~>"
    subject = f"{p.describe()} {arrow} {q.describe()}"
    d = domain_for(
        program,
        "check_leadsto_strong" if strong else "check_leadsto",
        subspace=subspace,
    )
    if d.size == 0:
        return CheckResult(
            True,
            kind,
            subject,
            message=f"no {d.where}states (vacuous over the {d.label})",
            witness=d.annotate({}, reachable=True, metrics=True),
        )
    analysis = fair_analysis(d, p, q, strong=strong)
    idx = np.flatnonzero(analysis.p_mask & analysis.avoid_mask)
    scope = f"{d.label}: {d.size} {d.where}states"
    if idx.size == 0:
        return CheckResult(
            True,
            kind,
            subject,
            message=(
                f"holds from every {d.where}p-state under {fairness} fairness: "
                f"all {int(analysis.cone_mask.sum())} ¬q-states reachable "
                f"from p reach q ({scope})"
            ),
            witness=d.annotate({}, reachable=True, metrics=True),
        )
    k = int(idx[0])
    state = d.state_at_local(k)
    # Two concrete walks: how the counterexample is reached (when the
    # domain keeps BFS parents), and how the scheduler confines the run
    # away from q — its last state names the fair SCC the run settles in.
    confining_states = [d.state_at_local(s) for s in analysis.confining_path(k)]
    fair_state = confining_states[-1]
    witness = {
        "state": state,
        "fair_scc_state": fair_state,
        "violations": int(idx.size),
    }
    path = d.witness_path(k)
    if path is not None:
        witness["path"], witness["path_commands"] = path
    witness["confining_path"] = confining_states
    return CheckResult(
        False,
        kind,
        subject,
        message=(
            f"from {d.where}p-state {state!r} the scheduler can avoid q forever "
            f"under {fairness} fairness (e.g. settling near {fair_state!r}; "
            f"{scope}; confining path of {len(confining_states)} ¬q-states "
            "into a fair SCC in the witness)"
        ),
        witness=d.annotate(witness, reachable=True, metrics=True),
    )


def check_leadsto(
    program: Program,
    p: Predicate,
    q: Predicate,
    *,
    subspace=None,
) -> CheckResult:
    """Check ``p ↝ q`` under weak fairness of ``D``.

    ``subspace`` is the keyword every public checker shares (see
    ``docs/composition.md``): it forces the judgment onto an explicit
    reachable subspace.  A budget and a checkpoint policy are
    :func:`repro.api.verify`'s.

    The witness of a failure contains a ``p``-state from which the
    scheduler can confine the execution to ``¬q`` forever, a state of the
    fair SCC it settles in, and ``witness["confining_path"]`` — a
    concrete shortest ``¬q``-confined walk from that ``p``-state into the
    fair SCC (over the reachable subspace the witness additionally
    carries ``witness["path"]``, the BFS-parent command path showing the
    ``p``-state is reachable).

    The domain comes from :func:`~repro.semantics.domain.domain_for`:
    spaces above the sparse threshold are decided over the reachable
    subspace (see :mod:`repro.semantics.sparse`); if the exploration
    cannot decide (non-expression ``initially``, reachable set above its
    ``node_limit``) the check falls back to the full space, which handles
    anything up to ``StateSpace.DENSE_MAX`` at dense memory cost.  Beyond
    ``DENSE_MAX`` the fallback refuses with a
    :class:`~repro.errors.CapacityError` whose ``__cause__`` is the
    exploration failure.
    """
    return leadsto_judgment(program, p, q, strong=False, subspace=subspace)
