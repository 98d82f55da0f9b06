"""Semantic checkers for the safety fragment of the property language.

The paper's semantics is **inductive** (§2): properties quantify over
*all* states of the space::

    init p        ≡  initially ⇒ p
    p next q      ≡  ⟨∀c : c ∈ C : p ⇒ wp.c.q⟩
    stable p      ≡  p next p
    transient p   ≡  ⟨∃c : c ∈ D : p ⇒ wp.c.¬p⟩
    invariant p   ≡  (init p) ∧ (stable p)

Each definition is stated once, by its property's ``check_on(d)``
(:mod:`repro.core.properties`), as calls of the rule judgments of the
evaluation domain ``d`` (:mod:`repro.semantics.domain`); the mask
domains' judgments have one body each
(:class:`~repro.semantics.judgments.MaskJudgments`).  Each public
``check_*`` function is one question: it resolves its domain once,
through :func:`~repro.semantics.domain.domain_for`, and decides the
property on it (``check_invariant`` runs both of its parts on that one
domain).  On the full space (every space up to the sparse threshold)
the checkers decide the inductive judgment above.  Spaces above the
threshold are decided over the reachable subspace — the
*reachable-restricted* judgment, through the frontier kernels, with no
full-space mask (results carry ``witness["tier"] == "sparse"``).  This
is what lets the proof kernel discharge the obligations of synthesized
certificates on 10¹²-state composition stacks.  Callers that need the
inductive judgment on a large space can force the full space via
``repro.semantics.sparse.SPARSE_THRESHOLD``.

Checkers return a :class:`CheckResult` carrying a decoded counterexample
when the property fails — the failing state, the command, and its
successor — which the test suite and examples surface directly.
"""

from __future__ import annotations

import numpy as np

from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.properties import Init, Invariant, Next, Stable, Transient
from repro.semantics.domain import domain_for
from repro.semantics.judgments import CheckResult

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


def check_validity(program: Program, p: Predicate, q: Predicate) -> CheckResult:
    """Predicate-calculus validity ``p ⇒ q`` over the program's domain.

    This is the side condition of the paper's *Implication* rule for
    leads-to and of ``init``-weakening steps.
    """
    return domain_for(program, "check_validity").valid(p, q)


def check_init(program: Program, p: Predicate) -> CheckResult:
    """``init p``: every state satisfying ``initially`` satisfies ``p``."""
    return Init(p).check_on(domain_for(program, "check_init"))


def check_next(program: Program, p: Predicate, q: Predicate) -> CheckResult:
    """``p next q``: every command maps every ``p``-state to a ``q``-state."""
    return Next(p, q).check_on(domain_for(program, "check_next"))


def check_stable(program: Program, p: Predicate) -> CheckResult:
    """``stable p ≡ p next p``."""
    return Stable(p).check_on(domain_for(program, "check_stable"))


def check_transient(program: Program, p: Predicate) -> CheckResult:
    """``transient p``: some fair command falsifies ``p`` from every
    ``p``-state.  The witness reports the helpful command when the
    property holds, and per-command failure states when it fails."""
    return Transient(p).check_on(domain_for(program, "check_transient"))


def check_invariant(program: Program, p: Predicate) -> CheckResult:
    """``invariant p ≡ (init p) ∧ (stable p)``, both parts on one domain."""
    return Invariant(p).check_on(domain_for(program, "check_invariant"))


def check_reachable_invariant(
    program: Program,
    p: Predicate,
    *,
    subspace=None,
) -> CheckResult:
    """The weaker, *non-inductive* notion: ``p`` holds on every reachable
    state.  Not part of the paper's logic (it corresponds to the
    substitution-axiom strengthening the paper avoids); provided for
    comparison and diagnostics.  Both domains decide the same judgment
    here; the reachable subspace adds a shortest command path to the
    counterexample (``witness["path"]`` / ``witness["path_commands"]``).

    ``subspace`` is the keyword every public checker shares (see
    ``docs/composition.md``); a budget and a checkpoint policy are
    :func:`repro.api.verify`'s.
    """
    kind = "reachable-invariant"
    subject = f"{kind} {p.describe()}"
    d = domain_for(program, "check_reachable_invariant", subspace=subspace)
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
