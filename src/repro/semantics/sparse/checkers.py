"""Sparse-tier property checks over the reachable subspace.

Each checker here is the local-id twin of a dense checker: the same
fair-SCC analysis (:func:`repro.semantics.leadsto._fair_flags`), the same
CSR closures, the same canonical condensation — run on the
:class:`~repro.semantics.sparse.explorer.ReachableSubspace` instead of the
encoded space.  Soundness of the restriction: the reachable set is closed
under every command, so the subgraph induced on it contains *all* edges
out of its nodes; SCCs, fair flags, and ``¬q``-confined reverse closures
computed locally agree exactly with the dense analysis restricted to
reachable states (the differential suite pins this).

What changes is the *judgment*: these checkers quantify over reachable
states only (the paper's inductive semantics quantifies over all states).
Results carry ``witness["tier"] == "sparse"`` and a message noting the
restriction, so callers that care can tell which judgment was decided.

Two checker families live here:

- the **liveness checkers** (:func:`check_leadsto_sparse`,
  :func:`check_leadsto_strong_sparse`), built on
  :func:`sparse_fair_analysis` — the local-id twin of
  :func:`repro.semantics.leadsto.fair_scc_analysis`, shared with the
  sparse proof synthesizer.  A failing verdict now carries two concrete
  walks: ``witness["path"]``, a shortest command path from the initial
  set to the violating ``p``-state (reconstructed from the explorer's BFS
  parents), and ``witness["confining_path"]``, a ``¬q``-confined walk
  from that state into a fair SCC — the scheduler's avoidance strategy,
  exhibited state by state;
- the **obligation checkers** (:func:`check_validity_sparse` …
  :func:`check_transient_strong_sparse`), the reachable-restricted twins
  of :mod:`repro.semantics.checker`'s safety checkers.  These discharge
  the leaf obligations of synthesized proof certificates through the
  frontier kernels (:meth:`Command.succ_of` / :meth:`Predicate.mask_at`)
  — nothing of length ``space.size`` is ever allocated, which is what
  lets the proof kernel re-check certificates for 10¹²-state composition
  stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.errors import BudgetExhausted
from repro.semantics.budget import PartialResult
from repro.semantics.checker import CheckResult
from repro.semantics.leadsto import _fair_flags, _fair_seed_mask
from repro.semantics.scc import Condensation
from repro.semantics.sparse.explorer import ReachableSubspace, reachable_subspace

__all__ = [
    "LocalFairAnalysis",
    "sparse_fair_analysis",
    "check_leadsto_sparse",
    "check_leadsto_strong_sparse",
    "check_reachable_invariant_sparse",
    "check_validity_sparse",
    "check_init_sparse",
    "check_next_sparse",
    "check_stable_sparse",
    "check_transient_sparse",
    "check_transient_strong_sparse",
    "check_obligations_batched_sparse",
]


@dataclass
class LocalFairAnalysis:
    """Fairness analysis of the local ``¬q`` subgraph (compact ids).

    The sparse twin of :class:`repro.semantics.leadsto.FairAnalysis`; all
    arrays are indexed by **local id** over ``sub.global_ids``.

    Attributes
    ----------
    sub:
        The analysed reachable subspace.
    notq:
        Local mask of reachable states violating ``q``.
    cond:
        Canonical SCC condensation of the local ``¬q`` subgraph (sinks
        first; identical to the dense condensation restricted to
        reachable states, because local ids preserve global order).
    fair_flags:
        Per-SCC fairness flags (weak or strong criterion, depending on
        how the analysis was built).
    avoid:
        Local mask of states that can reach a fair SCC inside ``¬q`` —
        the states from which the scheduler can avoid ``q`` forever.
    """

    sub: ReachableSubspace
    notq: np.ndarray
    cond: Condensation
    fair_flags: np.ndarray
    avoid: np.ndarray

    def fair_seed_mask(self) -> np.ndarray:
        """Local mask of all states lying inside a fair SCC."""
        return _fair_seed_mask(self.cond, self.fair_flags)


def sparse_fair_analysis(
    sub: ReachableSubspace, q: Predicate, *, strong: bool = False
) -> LocalFairAnalysis:
    """Analyse the local ``¬q`` subgraph for fair avoidance.

    With ``strong=True`` the per-SCC criterion is the strong-fairness one
    (:mod:`repro.semantics.strong_fairness`), evaluated over the local
    enabledness columns.  Shared by the sparse leads-to checkers and the
    sparse proof synthesizer (:mod:`repro.semantics.synthesis`), which
    turns ``cond``'s canonical sinks-first emission order directly into
    the variant metric of its induction certificates.
    """
    graph = sub.graph()
    notq = ~sub.pred_mask(q)
    cond = graph.condensation(notq)
    fair_cmds = sub.program.fair_commands
    tables = [sub.succ_local(cmd) for cmd in fair_cmds]
    enabled = [sub.enabled_local(cmd) for cmd in fair_cmds] if strong else None
    flags = _fair_flags(cond, tables, enabled=enabled)
    seeds = _fair_seed_mask(cond, flags)
    avoid = graph.reverse_closure(seeds, allowed=notq)
    return LocalFairAnalysis(
        sub=sub, notq=notq, cond=cond, fair_flags=flags, avoid=avoid
    )


def _decode_local(sub: ReachableSubspace, locals_: np.ndarray) -> list:
    return [sub.state_at_local(int(k)) for k in locals_]


def _with_metrics(witness: dict, sub: ReachableSubspace) -> dict:
    """Attach the subspace's exploration stats to a verdict witness.

    Only when a recorder is installed — with the null recorder the
    witness is byte-identical to the uninstrumented engine's, which the
    differential neutrality suite pins.
    """
    if obs.get_recorder().enabled and sub.stats:
        witness["metrics"] = dict(sub.stats)
    return witness


def _leadsto_result(
    program: Program,
    p: Predicate,
    q: Predicate,
    *,
    strong: bool,
    budget=None,
    subspace=None,
    checkpoint=None,
) -> CheckResult | PartialResult:
    kind = "leadsto-strong" if strong else "leadsto"
    arrow = "~>[strong]" if strong else "~>"
    subject = f"{p.describe()} {arrow} {q.describe()}"
    try:
        sub = (
            subspace
            if subspace is not None
            else reachable_subspace(program, budget=budget, checkpoint=checkpoint)
        )
    except BudgetExhausted as exc:
        # Graceful degradation: the budget ran out before the reachable
        # closure was complete, so no verdict is sound — return the
        # structured UNKNOWN (with the resume path) instead of letting
        # the exception unwind through the tier router.
        return PartialResult.from_exhaustion(exc, kind=kind, subject=subject)
    if sub.size == 0:
        return CheckResult(
            True,
            kind,
            subject,
            message="no reachable states (vacuous over the sparse tier)",
            witness=_with_metrics({"tier": "sparse", "reachable": 0}, sub),
        )
    analysis = sparse_fair_analysis(sub, q, strong=strong)
    bad = sub.pred_mask(p) & analysis.avoid
    idx = np.flatnonzero(bad)
    if idx.size == 0:
        return CheckResult(
            True,
            kind,
            subject,
            message=(
                f"holds from every reachable p-state (sparse tier: "
                f"{sub.size} reachable of {sub.space.size} encoded states)"
            ),
            witness=_with_metrics({"tier": "sparse", "reachable": sub.size}, sub),
        )
    k = int(idx[0])
    state = sub.state_at_local(k)
    # Two concrete walks: how the counterexample is reached, and how the
    # scheduler confines the run away from q once there.
    path_states, path_cmds = sub.witness_path(k)
    sources = np.zeros(sub.size, dtype=bool)
    sources[k] = True
    confining = sub.graph().path_between(
        sources, analysis.fair_seed_mask(), allowed=analysis.notq
    )
    confining_states = (
        _decode_local(sub, confining) if confining is not None else [state]
    )
    return CheckResult(
        False,
        kind,
        subject,
        message=(
            f"from reachable p-state {state!r} the scheduler can avoid q "
            f"forever (sparse tier: {sub.size} reachable states; "
            f"confining path of {len(confining_states)} ¬q-states into a "
            f"fair SCC in the witness)"
        ),
        witness=_with_metrics(
            {
                "tier": "sparse",
                "state": state,
                "violations": int(idx.size),
                "reachable": sub.size,
                "path": path_states,
                "path_commands": path_cmds,
                "confining_path": confining_states,
            },
            sub,
        ),
    )


def check_leadsto_sparse(
    program: Program,
    p: Predicate,
    q: Predicate,
    *,
    budget=None,
    subspace=None,
    checkpoint=None,
) -> CheckResult | PartialResult:
    """``p ↝ q`` under weak fairness, from every **reachable** ``p``-state.

    With a ``budget``, exhaustion degrades to a
    :class:`~repro.semantics.budget.PartialResult` (``status="unknown"``,
    resumable) instead of raising.  ``subspace`` forces the judgment onto
    an explicit :class:`~repro.semantics.sparse.explorer.ReachableSubspace`
    instead of the cached default exploration.
    """
    return _leadsto_result(
        program,
        p,
        q,
        strong=False,
        budget=budget,
        subspace=subspace,
        checkpoint=checkpoint,
    )


def check_leadsto_strong_sparse(
    program: Program,
    p: Predicate,
    q: Predicate,
    *,
    budget=None,
    subspace=None,
    checkpoint=None,
) -> CheckResult | PartialResult:
    """``p ↝ q`` under strong fairness, from every **reachable** ``p``-state."""
    return _leadsto_result(
        program,
        p,
        q,
        strong=True,
        budget=budget,
        subspace=subspace,
        checkpoint=checkpoint,
    )


def check_reachable_invariant_sparse(
    program: Program,
    p: Predicate,
    *,
    budget=None,
    subspace=None,
    checkpoint=None,
) -> CheckResult | PartialResult:
    """``p`` holds on every reachable state — the same judgment as
    :func:`repro.semantics.checker.check_reachable_invariant`, decided
    without full-space arrays.  With a ``budget``, exhaustion degrades to
    a resumable ``status="unknown"`` :class:`~repro.semantics.budget.
    PartialResult` instead of raising."""
    subject = f"reachable-invariant {p.describe()}"
    try:
        sub = (
            subspace
            if subspace is not None
            else reachable_subspace(program, budget=budget, checkpoint=checkpoint)
        )
    except BudgetExhausted as exc:
        return PartialResult.from_exhaustion(
            exc, kind="reachable-invariant", subject=subject
        )
    bad = ~sub.pred_mask(p)
    idx = np.flatnonzero(bad)
    if idx.size == 0:
        return CheckResult(
            True,
            "reachable-invariant",
            subject,
            message=f"holds on all {sub.size} reachable states",
            witness=_with_metrics({"tier": "sparse", "reachable": sub.size}, sub),
        )
    k = int(idx[0])
    state = sub.state_at_local(k)
    path_states, path_cmds = sub.witness_path(k)
    return CheckResult(
        False,
        "reachable-invariant",
        subject,
        message=f"reachable state {state!r} violates p",
        witness=_with_metrics(
            {
                "tier": "sparse",
                "state": state,
                "violations": int(idx.size),
                "reachable": sub.size,
                "path": path_states,
                "path_commands": path_cmds,
            },
            sub,
        ),
    )


# ---------------------------------------------------------------------------
# Reachable-restricted obligation checkers (proof-kernel leaves)
# ---------------------------------------------------------------------------


def check_validity_sparse(program: Program, p: Predicate, q: Predicate) -> CheckResult:
    """``p ⇒ q`` on every **reachable** state (sparse validity)."""
    sub = reachable_subspace(program)
    subject = f"{p.describe()} => {q.describe()}"
    bad = sub.pred_mask(p) & ~sub.pred_mask(q)
    idx = np.flatnonzero(bad)
    if idx.size == 0:
        return CheckResult(
            True,
            "validity",
            subject,
            message=f"valid on all {sub.size} reachable states (sparse tier)",
            witness={"tier": "sparse", "reachable": sub.size},
        )
    state = sub.state_at_local(int(idx[0]))
    return CheckResult(
        False,
        "validity",
        subject,
        message=f"violated at reachable {state!r} (+{idx.size - 1} more)",
        witness={"tier": "sparse", "state": state, "violations": int(idx.size)},
    )


def check_init_sparse(program: Program, p: Predicate) -> CheckResult:
    """``init p`` over the sparse enumeration of the initial states."""
    sub = reachable_subspace(program)
    subject = f"init {p.describe()}"
    init = sub.init_local
    bad = init[~p.mask_at(sub.space, sub.global_ids[init])] if init.size else init
    if bad.size == 0:
        return CheckResult(
            True,
            "init",
            subject,
            message=f"holds on all {init.size} initial states (sparse tier)",
            witness={"tier": "sparse"},
        )
    state = sub.state_at_local(int(bad[0]))
    return CheckResult(
        False,
        "init",
        subject,
        message=f"initial state {state!r} violates p",
        witness={"tier": "sparse", "state": state, "violations": int(bad.size)},
    )


def check_next_sparse(program: Program, p: Predicate, q: Predicate) -> CheckResult:
    """``p next q`` from every **reachable** state, through the local
    successor columns (one gather per command, no full tables)."""
    sub = reachable_subspace(program)
    subject = f"{p.describe()} next {q.describe()}"
    pm = sub.pred_mask(p)
    qm = sub.pred_mask(q)
    for cmd in sub.program.commands:
        table = sub.succ_local(cmd)
        bad = pm & ~qm[table]
        idx = np.flatnonzero(bad)
        if idx.size:
            k = int(idx[0])
            state = sub.state_at_local(k)
            succ = sub.state_at_local(int(table[k]))
            return CheckResult(
                False,
                "next",
                subject,
                message=(
                    f"command {cmd.name} steps reachable {state!r} to "
                    f"{succ!r}, which violates q"
                ),
                witness={
                    "tier": "sparse",
                    "state": state,
                    "command": cmd.name,
                    "successor": succ,
                    "violations": int(idx.size),
                },
            )
    return CheckResult(
        True,
        "next",
        subject,
        message=f"holds from all {sub.size} reachable states (sparse tier)",
        witness={"tier": "sparse", "reachable": sub.size},
    )


def check_stable_sparse(program: Program, p: Predicate) -> CheckResult:
    """``stable p ≡ p next p`` over reachable states."""
    result = check_next_sparse(program, p, p)
    return CheckResult(
        result.holds,
        "stable",
        f"stable {p.describe()}",
        message=result.message,
        witness=result.witness,
    )


def check_transient_sparse(program: Program, p: Predicate) -> CheckResult:
    """``transient p`` over reachable states: some fair command falsifies
    ``p`` from every reachable ``p``-state (the paper's single-helpful-
    command rule, restricted to the subspace)."""
    sub = reachable_subspace(program)
    subject = f"transient {p.describe()}"
    pm = sub.pred_mask(p)
    fair = sub.program.fair_commands
    if not fair:
        if not pm.any():
            return CheckResult(
                True,
                "transient",
                subject,
                message=(
                    "p is unsatisfiable on the reachable set "
                    "(vacuously transient, sparse tier)"
                ),
                witness={"tier": "sparse"},
            )
        return CheckResult(
            False,
            "transient",
            subject,
            message="the program has no fair commands (D = ∅)",
            witness={"tier": "sparse"},
        )
    failures: dict[str, object] = {}
    for cmd in fair:
        bad = pm & pm[sub.succ_local(cmd)]
        idx = np.flatnonzero(bad)
        if idx.size == 0:
            return CheckResult(
                True,
                "transient",
                subject,
                message=(
                    f"command {cmd.name} falsifies p from every reachable "
                    "p-state (sparse tier)"
                ),
                witness={"tier": "sparse", "command": cmd.name},
            )
        failures[cmd.name] = sub.state_at_local(int(idx[0]))
    return CheckResult(
        False,
        "transient",
        subject,
        message=(
            "no single fair command falsifies p from every reachable "
            "p-state; per-command stuck states recorded in the witness"
        ),
        witness={"tier": "sparse", "stuck_states": failures},
    )


def check_obligations_batched_sparse(sub: ReachableSubspace, layout):
    """Sparse twin of the batched certificate kernel: discharge every
    obligation of a columnar certificate over the reachable subspace.

    The local-id counterpart of
    :func:`repro.semantics.checker.check_obligations_batched`: members
    map to local ids (entries outside the reachable set are dropped —
    they are invisible to every reachable-restricted mask the per-level
    oracle computes), successors come from the cached
    :meth:`~repro.semantics.sparse.explorer.ReachableSubspace.succ_local`
    columns, and nothing of length ``space.size`` is allocated.  Called
    through :func:`repro.semantics.synthesis.check_certificate_batched`.
    """
    from repro.semantics.obligations import check_columnar_obligations

    gids = sub.global_ids

    def to_local(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # One binary search yields both the membership mask and the local
        # positions (kept entries have pos < gids.size, so pos == clipped).
        if gids.size == 0:
            return arr[:0], np.zeros(arr.shape[0], dtype=bool)
        pos = np.searchsorted(gids, arr)
        clipped = np.minimum(pos, gids.size - 1)
        keep = (pos < gids.size) & (gids[clipped] == arr)
        return pos[keep], keep

    level_local = [to_local(m)[0] for m in layout.level_members]
    pref_local, pref_keep = to_local(layout.prefix_members)
    program = sub.program
    commands = [
        (cmd.name, (lambda ids, c=cmd: sub.succ_local(c)[ids]))
        for cmd in program.commands
    ]
    fair = [
        (cmd.name, (lambda ids, c=cmd: sub.succ_local(c)[ids]))
        for cmd in program.fair_commands
    ]

    def enabled_at(name: str, ids: np.ndarray) -> np.ndarray:
        return sub.enabled_local(name)[ids]

    return check_columnar_obligations(
        n=sub.size,
        p_mask=sub.pred_mask(layout.p),
        q_mask=sub.pred_mask(layout.q),
        level_members=level_local,
        prefix_members=pref_local,
        prefix_ranks=layout.prefix_ranks[pref_keep],
        commands=commands,
        fair=fair,
        strong=layout.fairness == "strong",
        enabled_at=enabled_at,
        decode=sub.state_at_local,
        tier="sparse tier",
    )


def check_transient_strong_sparse(program: Program, p: Predicate) -> CheckResult:
    """``p`` is transient under **strong** fairness, over reachable states.

    Finite-state criterion (see :mod:`repro.semantics.strong_fairness`):
    no SCC of the reachable ``p``-subgraph passes the strong-fairness
    test — every component has a helpful ``d ∈ D`` that is enabled at
    some member and exits the component from *every* member that enables
    it, so a strongly-fair run must keep descending the condensation DAG
    until it leaves ``p``.
    """
    sub = reachable_subspace(program)
    subject = f"transient[strong] {p.describe()}"
    pm = sub.pred_mask(p)
    if not pm.any():
        return CheckResult(
            True,
            "transient-strong",
            subject,
            message=(
                "p is unsatisfiable on the reachable set "
                "(vacuously transient, sparse tier)"
            ),
            witness={"tier": "sparse"},
        )
    fair = sub.program.fair_commands
    cond = sub.graph().condensation(pm)
    flags = _fair_flags(
        cond,
        [sub.succ_local(cmd) for cmd in fair],
        enabled=[sub.enabled_local(cmd) for cmd in fair],
    )
    hit = np.flatnonzero(flags)
    if hit.size == 0:
        return CheckResult(
            True,
            "transient-strong",
            subject,
            message=(
                f"every SCC of the reachable p-subgraph "
                f"({cond.count} component(s)) has an enabled exiting fair "
                "command (sparse tier)"
            ),
            witness={"tier": "sparse", "components": cond.count},
        )
    state = sub.state_at_local(int(cond.members_of(hit[0])[0]))
    return CheckResult(
        False,
        "transient-strong",
        subject,
        message=(
            f"a strongly-fair execution can stay inside p forever "
            f"(e.g. in the component of {state!r})"
        ),
        witness={
            "tier": "sparse",
            "state": state,
            "fair_components": int(hit.size),
        },
    )
