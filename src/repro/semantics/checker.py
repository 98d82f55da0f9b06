"""Semantic checkers for the safety fragment of the property language.

The paper's semantics is **inductive** (§2): properties quantify over
*all* states of the space::

    init p        ≡  initially ⇒ p
    p next q      ≡  ⟨∀c : c ∈ C : p ⇒ wp.c.q⟩
    stable p      ≡  p next p
    transient p   ≡  ⟨∃c : c ∈ D : p ⇒ wp.c.¬p⟩
    invariant p   ≡  (init p) ∧ (stable p)

Because commands are total deterministic functions, ``p ⇒ wp.c.q`` over a
set of states is the single vectorized test ``¬p_mask ∨ q_mask[succ_c]``.

Each judgment is written once, as a function of the evaluation domain
it decides on (:mod:`repro.semantics.domain`): ``validity_on``,
``init_on``, ``next_on``, ``stable_on``, ``transient_on`` and
``invariant_on``.  Each public ``check_*`` function is one question: it
resolves its domain once, through
:func:`~repro.semantics.domain.domain_for`, and calls the judgment on
it (``check_invariant`` runs both of its parts on that one domain).
Proof checks call the judgments directly, on the one domain their
question resolved (:meth:`repro.core.proofs.ProofNode.check`).  On the
full space (every space up to the sparse threshold) the checkers decide
the inductive judgment above.  Spaces above the threshold
are decided over the reachable subspace — the *reachable-restricted*
judgment, through the frontier kernels, with no full-space mask (results
carry ``witness["tier"] == "sparse"``).  This is what lets the proof
kernel discharge the obligations of synthesized certificates on
10¹²-state composition stacks.  Callers that need the inductive judgment
on a large space can force the full space via
``repro.semantics.sparse.SPARSE_THRESHOLD``.

Checkers return a :class:`CheckResult` carrying a decoded counterexample
when the property fails — the failing state, the command, and its
successor — which the test suite and examples surface directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.errors import BudgetExhausted
from repro.semantics.budget import PartialResult
from repro.semantics.domain import domain_for

__all__ = [
    "CheckResult",
    "check_validity",
    "check_init",
    "check_next",
    "check_stable",
    "check_transient",
    "check_invariant",
    "check_reachable_invariant",
]


@dataclass
class CheckResult:
    """Outcome of a semantic property check.

    ``witness`` holds structured diagnostic data (decoded states, command
    names); its keys vary by ``kind`` and are documented per checker.
    """

    holds: bool
    kind: str
    subject: str
    message: str = ""
    witness: dict[str, Any] = field(default_factory=dict)

    #: Obligations deciding the judgment took, as a proof-check verdict
    #: (:func:`repro.core.proofs.discharge`): one.
    obligations = 1

    def __bool__(self) -> bool:
        return self.holds

    def explain(self) -> str:
        """One-line human-readable summary."""
        status = "HOLDS" if self.holds else "FAILS"
        tail = f" — {self.message}" if self.message else ""
        return f"[{status}] {self.kind}: {self.subject}{tail}"


def check_validity(program: Program, p: Predicate, q: Predicate) -> CheckResult:
    """Predicate-calculus validity ``p ⇒ q`` over the program's domain.

    This is the side condition of the paper's *Implication* rule for
    leads-to and of ``init``-weakening steps.
    """
    return validity_on(domain_for(program, "check_validity"), p, q)


def validity_on(d, p: Predicate, q: Predicate) -> CheckResult:
    """:func:`check_validity` over the domain ``d``."""
    subject = f"{p.describe()} => {q.describe()}"
    idx = np.flatnonzero(d.pred_mask(p) & ~d.pred_mask(q))
    if idx.size == 0:
        return CheckResult(
            True,
            "validity",
            subject,
            message=f"valid on all {d.size} {d.where}states ({d.label})",
            witness=d.annotate({}, reachable=True),
        )
    state = d.state_at_local(int(idx[0]))
    return CheckResult(
        False,
        "validity",
        subject,
        message=f"violated at {d.where}{state!r} (+{idx.size - 1} more)",
        witness=d.annotate({"state": state, "violations": int(idx.size)}),
    )


def check_init(program: Program, p: Predicate) -> CheckResult:
    """``init p``: every state satisfying ``initially`` satisfies ``p``."""
    return init_on(domain_for(program, "check_init"), p)


def init_on(d, p: Predicate) -> CheckResult:
    """:func:`check_init` over the domain ``d``."""
    subject = f"init {p.describe()}"
    init = d.init_local
    bad = init[~d.pred_mask(p)[init]]
    if bad.size == 0:
        return CheckResult(
            True,
            "init",
            subject,
            message=f"holds on all {init.size} initial states ({d.label})",
            witness=d.annotate({}),
        )
    state = d.state_at_local(int(bad[0]))
    return CheckResult(
        False,
        "init",
        subject,
        message=f"initial state {state!r} violates p",
        witness=d.annotate({"state": state, "violations": int(bad.size)}),
    )


def check_next(program: Program, p: Predicate, q: Predicate) -> CheckResult:
    """``p next q``: every command maps every ``p``-state to a ``q``-state."""
    return next_on(domain_for(program, "check_next"), p, q)


def next_on(d, p: Predicate, q: Predicate) -> CheckResult:
    """:func:`check_next` over the domain ``d``."""
    subject = f"{p.describe()} next {q.describe()}"
    pm = d.pred_mask(p)
    qm = d.pred_mask(q)
    for cmd in d.program.commands:
        succ = d.succ_local(cmd)
        idx = np.flatnonzero(pm & ~qm[succ])
        if idx.size:
            k = int(idx[0])
            state = d.state_at_local(k)
            successor = d.state_at_local(int(succ[k]))
            return CheckResult(
                False,
                "next",
                subject,
                message=(
                    f"command {cmd.name} steps {d.where}{state!r} to "
                    f"{successor!r}, which violates q"
                ),
                witness=d.annotate(
                    {
                        "state": state,
                        "command": cmd.name,
                        "successor": successor,
                        "violations": int(idx.size),
                    }
                ),
            )
    return CheckResult(
        True,
        "next",
        subject,
        message=f"holds from all {d.size} {d.where}states ({d.label})",
        witness=d.annotate({}, reachable=True),
    )


def check_stable(program: Program, p: Predicate) -> CheckResult:
    """``stable p ≡ p next p``."""
    return stable_on(domain_for(program, "check_stable"), p)


def stable_on(d, p: Predicate) -> CheckResult:
    """:func:`check_stable` over the domain ``d``."""
    result = next_on(d, p, p)
    return CheckResult(
        result.holds,
        "stable",
        f"stable {p.describe()}",
        message=result.message,
        witness=result.witness,
    )


def check_transient(program: Program, p: Predicate) -> CheckResult:
    """``transient p``: some fair command falsifies ``p`` from every
    ``p``-state.  The witness reports the helpful command when the
    property holds, and per-command failure states when it fails."""
    return transient_on(domain_for(program, "check_transient"), p)


def transient_on(d, p: Predicate) -> CheckResult:
    """:func:`check_transient` over the domain ``d``."""
    subject = f"transient {p.describe()}"
    pm = d.pred_mask(p)
    fair = d.program.fair_commands
    if not fair:
        # With D empty nothing is forced to execute, so only the
        # unsatisfiable predicate is transient.
        if not pm.any():
            return CheckResult(
                True,
                "transient",
                subject,
                message=(
                    f"p is unsatisfiable on every {d.where}state "
                    f"(vacuously transient, {d.label})"
                ),
                witness=d.annotate({}),
            )
        return CheckResult(
            False,
            "transient",
            subject,
            message="the program has no fair commands (D = ∅)",
            witness=d.annotate({}),
        )
    failures: dict[str, Any] = {}
    for cmd in fair:
        idx = np.flatnonzero(pm & pm[d.succ_local(cmd)])
        if idx.size == 0:
            return CheckResult(
                True,
                "transient",
                subject,
                message=(
                    f"command {cmd.name} falsifies p from every "
                    f"{d.where}p-state ({d.label})"
                ),
                witness=d.annotate({"command": cmd.name}),
            )
        failures[cmd.name] = d.state_at_local(int(idx[0]))
    return CheckResult(
        False,
        "transient",
        subject,
        message=(
            f"no single fair command falsifies p from every {d.where}p-state; "
            "per-command stuck states recorded in the witness"
        ),
        witness=d.annotate({"stuck_states": failures}),
    )


def check_invariant(program: Program, p: Predicate) -> CheckResult:
    """``invariant p ≡ (init p) ∧ (stable p)``, both parts on one domain."""
    return invariant_on(domain_for(program, "check_invariant"), p)


def invariant_on(d, p: Predicate) -> CheckResult:
    """:func:`check_invariant` over the domain ``d``."""
    subject = f"invariant {p.describe()}"
    init_res = init_on(d, p)
    if not init_res.holds:
        return CheckResult(
            False,
            "invariant",
            subject,
            message=f"init part fails: {init_res.message}",
            witness=init_res.witness,
        )
    stab_res = stable_on(d, p)
    if not stab_res.holds:
        return CheckResult(
            False,
            "invariant",
            subject,
            message=f"stable part fails: {stab_res.message}",
            witness=stab_res.witness,
        )
    # Both parts ran on one domain; their annotated witnesses name it.
    return CheckResult(
        True,
        "invariant",
        subject,
        witness={**init_res.witness, **stab_res.witness},
    )


def check_reachable_invariant(
    program: Program,
    p: Predicate,
    *,
    budget=None,
    subspace=None,
) -> CheckResult:
    """The weaker, *non-inductive* notion: ``p`` holds on every reachable
    state.  Not part of the paper's logic (it corresponds to the
    substitution-axiom strengthening the paper avoids); provided for
    comparison and diagnostics.  Both domains decide the same judgment
    here; the reachable subspace adds a shortest command path to the
    counterexample (``witness["path"]`` / ``witness["path_commands"]``).

    ``budget`` / ``subspace`` form the normalized keyword set shared by
    every public checker (see ``docs/composition.md``); a checkpoint
    policy is :func:`repro.api.verify`'s.  With a
    ``budget``, exhaustion of the reachable exploration degrades to a
    resumable ``status="unknown"`` :class:`~repro.semantics.budget.
    PartialResult` instead of raising (see ``docs/robustness.md``).
    """
    kind = "reachable-invariant"
    subject = f"{kind} {p.describe()}"
    try:
        d = domain_for(
            program,
            "check_reachable_invariant",
            budget=budget,
            subspace=subspace,
        )
    except BudgetExhausted as exc:
        return PartialResult.from_exhaustion(exc, kind=kind, subject=subject)
    reach = d.reachable_mask()
    idx = np.flatnonzero(reach & ~d.pred_mask(p))
    if idx.size == 0:
        return CheckResult(
            True,
            kind,
            subject,
            message=f"holds on all {int(reach.sum())} reachable states",
            witness=d.annotate({}, reachable=True, metrics=True),
        )
    k = int(idx[0])
    state = d.state_at_local(k)
    witness = {"state": state, "violations": int(idx.size)}
    path = d.witness_path(k)
    if path is not None:
        witness["path"], witness["path_commands"] = path
    return CheckResult(
        False,
        kind,
        subject,
        message=f"reachable state {state!r} violates p",
        witness=d.annotate(witness, reachable=True, metrics=True),
    )
