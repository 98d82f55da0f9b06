"""Assume–guarantee certificate objects: prove the product, skip the product.

The paper's composition theorem says a property proved of each component
*in the right form* is a property of the union program — that is what
makes ``X guarantees Y`` useful.  This module supplies the **certificate
side** of that story: proof-tree nodes whose obligations are all *local*
(per-command, over the variables the obligation actually mentions), so a
liveness judgment about a composed system whose encoded state space
exceeds even the sparse tier's ``int64`` indexing can still be stated,
recorded, and re-checked — without ever materializing the product.

Three things live here:

- :class:`StrongEnsures` — the one genuinely new inference rule.  The
  classical strong-fairness completion: ``p ↝ q`` follows from

  1. *(progress never undone)*  ``p∧¬q  next  p∨q``;
  2. *(helpful exit)*  ``p∧¬q∧en(c) ⇒ wp.c.q`` for a strongly-fair ``c``;
  3. *(recurrence)* a sub-proof of ``p∧¬q ↝ q ∨ (p∧¬q∧en(c))``.

  Soundness: a strongly-fair run from ``p`` that never reaches ``q``
  stays in ``p∧¬q`` forever by (1); by (3) it then enables ``c``
  infinitely often; strong fairness fires ``c`` *while enabled*, and (2)
  exits to ``q`` — contradiction.  (Weak-fairness sub-proofs remain
  sound premises: every rule of the weak kernel is sound under the
  strong scheduler too, since a weak ``transient`` witness is
  everywhere-enabled on its region.)

- :class:`SupportSplit` — a :class:`~repro.core.rules.Disjunction` whose
  completeness side condition is *propositional*: over variables with
  non-negative domains, ``p ≡ ⋁_v (p ∧ v>0) ∨ (p ∧ ⋀_v v=0)``.  Every
  domain discharges it by inspecting variable domains and branch shapes
  instead of comparing the declared left-hand side with the premises'.

- :class:`CompositionalCertificate` — the recorded rule tree: component
  certificates at the leaves (each checked on its *own* small space by
  the existing dense/sparse pipeline), calculus applications
  (``g_transitivity`` / ``g_conjunction`` / ``g_weaken`` steps and the
  leads-to rules) at internal nodes, plus the locality report of the
  composition itself.  Re-checking walks the tree once
  (:meth:`~repro.core.proofs.ProofNode.check_on` on the footprint
  domain), touching each command a bounded number of times — linear in
  the component count.

Helpers :func:`pred_conjuncts` / :func:`pred_disjuncts` /
:func:`constant_binding` / :func:`linear_terms` expose the predicate
structure the footprint kernel (:mod:`repro.semantics.obligations`)
projects obligations with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.expressions import (
    Add,
    And,
    Const,
    EqE,
    Expr,
    Mul,
    Neg,
    Or,
    Sub,
    VarRef,
)
from repro.core.predicates import (
    ExprPredicate,
    Predicate,
    _Composite,
    _Negation,
)
from repro.core.proofs import ProofCheckResult, ProofFailure, discharge
from repro.core.rules import Disjunction, LeadsToProof
from repro.core.variables import Var
from repro.errors import ProofError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.program import Program
    from repro.core.properties import Guarantees

__all__ = [
    "pred_conjuncts",
    "pred_disjuncts",
    "constant_binding",
    "linear_terms",
    "StrongEnsures",
    "SupportSplit",
    "ComponentCertificate",
    "CompositionalCertificate",
]


# ---------------------------------------------------------------------------
# Predicate structure helpers
# ---------------------------------------------------------------------------


def pred_conjuncts(pred: Predicate) -> tuple[Predicate, ...]:
    """Top-level conjuncts of ``pred`` (``pred`` itself if not an ∧).

    ``p & q`` over two :class:`ExprPredicate`\\ s merges into a single
    ``ExprPredicate(And(...))`` (see ``_combine``), so expression-level
    conjunctions must be split here as well as ``_Composite`` ones.
    """
    if isinstance(pred, _Composite) and pred.op == "and":
        out: list[Predicate] = []
        for part in pred.parts:
            out.extend(pred_conjuncts(part))
        return tuple(out)
    if isinstance(pred, ExprPredicate) and isinstance(pred.expr, And):
        out = []
        for operand in pred.expr.operands:
            out.extend(pred_conjuncts(ExprPredicate(operand)))
        return tuple(out)
    return (pred,)


def pred_disjuncts(pred: Predicate) -> tuple[Predicate, ...]:
    """Top-level disjuncts of ``pred`` (``pred`` itself if not an ∨)."""
    if isinstance(pred, _Composite) and pred.op == "or":
        out: list[Predicate] = []
        for part in pred.parts:
            out.extend(pred_disjuncts(part))
        return tuple(out)
    if isinstance(pred, ExprPredicate) and isinstance(pred.expr, Or):
        out = []
        for operand in pred.expr.operands:
            out.extend(pred_disjuncts(ExprPredicate(operand)))
        return tuple(out)
    return (pred,)


def constant_binding(pred: Predicate) -> tuple[Var, Any] | None:
    """``(v, value)`` when ``pred`` is literally ``v == const`` (either
    orientation), else ``None``.  The footprint kernel uses bindings to
    evaluate wide predicates on narrow spaces: a conjunct that *pins* a
    variable removes it from the space instead of enlarging it."""
    if not isinstance(pred, ExprPredicate):
        return None
    expr = pred.expr
    if not isinstance(expr, EqE):
        return None
    lhs, rhs = expr.left, expr.right
    if isinstance(lhs, VarRef) and isinstance(rhs, Const):
        return (lhs.var, rhs.value)
    if isinstance(rhs, VarRef) and isinstance(lhs, Const):
        return (rhs.var, lhs.value)
    return None


def linear_terms(expr: Expr) -> tuple[dict[Var, int], int] | None:
    """Decompose an integer expression as ``Σ coeff_v·v + const``.

    Returns ``None`` when the expression is not (syntactically) linear.
    This is how ``stable (Σ tokens = total)`` becomes checkable without
    the product: each command preserves a linear invariant iff the
    weighted delta of its own assignments is zero under its guard — an
    obligation over the command's variables only (see
    :meth:`repro.semantics.obligations.FootprintKernel.check_linear_stable`).
    """
    if isinstance(expr, Const):
        if isinstance(expr.value, bool) or not isinstance(expr.value, int):
            return None
        return ({}, int(expr.value))
    if isinstance(expr, VarRef):
        return ({expr.var: 1}, 0)
    if isinstance(expr, Neg):
        sub = linear_terms(expr.operand)
        if sub is None:
            return None
        terms, const = sub
        return ({v: -c for v, c in terms.items()}, -const)
    if isinstance(expr, (Add, Sub)):
        left = linear_terms(expr.left)
        right = linear_terms(expr.right)
        if left is None or right is None:
            return None
        sign = -1 if isinstance(expr, Sub) else 1
        terms = dict(left[0])
        for v, c in right[0].items():
            terms[v] = terms.get(v, 0) + sign * c
        return (
            {v: c for v, c in terms.items() if c != 0},
            left[1] + sign * right[1],
        )
    if isinstance(expr, Mul):
        left = linear_terms(expr.left)
        right = linear_terms(expr.right)
        if left is None or right is None:
            return None
        for scale, lin in ((left, right), (right, left)):
            if not scale[0]:  # constant factor
                k = scale[1]
                return ({v: k * c for v, c in lin[0].items() if k * c != 0}, k * lin[1])
        return None
    return None


# ---------------------------------------------------------------------------
# New rule nodes
# ---------------------------------------------------------------------------


class StrongEnsures(LeadsToProof):
    """``p ↝ q`` by strong-fairness completion around command ``helpful``.

    Premises (see the module docstring for the soundness argument):

    1. ``p∧¬q next p∨q`` — a semantic leaf of this node;
    2. ``p∧¬q ∧ en(helpful) ⇒ wp.helpful.q`` — a semantic leaf;
    3. ``recurrence`` — a sub-proof concluding
       ``p∧¬q ↝ q ∨ (p∧¬q ∧ en(helpful))``.

    ``helpful`` must be a *strongly-fair* guarded command of the program
    (here: a member of the fair subset ``D``, which the strong-fairness
    semantics schedules strongly).  Certificates containing this node are
    judgments of the strong-fairness semantics, like
    :class:`~repro.core.rules.StrongTransientBasis`.
    """

    rule_name = "strong-ensures"

    def __init__(
        self,
        p: Predicate,
        q: Predicate,
        *,
        helpful: str,
        recurrence: LeadsToProof,
    ) -> None:
        self.p = p
        self.q = q
        self.helpful = helpful
        self.recurrence = recurrence

    def lhs(self) -> Predicate:
        return self.p

    def rhs(self) -> Predicate:
        return self.q

    def premises(self) -> tuple[LeadsToProof, ...]:
        return (self.recurrence,)

    def region(self) -> Predicate:
        """The exit region ``p ∧ ¬q`` the three premises quantify over."""
        return self.p & ~self.q

    def enabled_predicate(self, program: "Program") -> Predicate:
        """``en(helpful)`` as a predicate (requires a guarded command)."""
        cmd = program.command_named(self.helpful)
        if len(getattr(cmd, "branches", ())) != 1:
            raise ProofError(
                f"strong-ensures: helpful command {self.helpful!r} must be "
                "a guarded command (its enabledness must be expressible)"
            )
        return ExprPredicate(cmd.guard)

    def recurrence_target(self, program: "Program") -> Predicate:
        """``q ∨ (p∧¬q ∧ en(helpful))`` — what the recurrence must reach."""
        return self.q | (self.region() & self.enabled_predicate(program))

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        program = d.program
        if self.helpful not in program.fair_names:
            result.failures.append(
                ProofFailure(
                    path,
                    f"helpful command {self.helpful!r} is not in the fair "
                    f"subset of {program.name}",
                )
            )
            return
        rho = self.region()
        discharge(result, path, d.next(rho, self.p | self.q))
        try:
            en = self.enabled_predicate(program)
        except ProofError as exc:
            result.failures.append(ProofFailure(path, f"refused: {exc}"))
            return
        cmd = program.command_named(self.helpful)
        discharge(result, path, d.valid_wp(rho & en, cmd, self.q))
        discharge(
            result,
            path,
            d.equivalent(self.recurrence.lhs(), rho),
            lambda: "recurrence premise starts from "
            f"{self.recurrence.lhs().describe()}, not from the "
            f"exit region {rho.describe()}",
        )
        discharge(
            result,
            path,
            d.valid(self.recurrence.rhs(), self.recurrence_target(program)),
            lambda: "recurrence premise does not reach "
            "q ∨ (region ∧ en(helpful)): concludes "
            f"{self.recurrence.rhs().describe()}",
        )


class SupportSplit(Disjunction):
    """Case split on *which token variable is positive*.

    A :class:`~repro.core.rules.Disjunction` over the branches
    ``base ∧ v > 0`` (one per ``v`` in ``split_vars``) plus the branch
    ``base ∧ ⋀_v v = 0``, concluding ``base ↝ q``.  When every split
    variable has a non-negative domain the completeness side condition
    is a propositional tautology, so on every domain the node checks
    the branch *shapes* (each premise starts exactly from its case), the
    domain lower bounds and that the premises' right-hand sides agree,
    instead of the Disjunction's declared-left-hand-side equivalence.
    """

    rule_name = "support-split"

    def __init__(
        self,
        base: Predicate,
        split_vars: tuple[Var, ...],
        positive_subs: tuple[LeadsToProof, ...],
        zero_sub: LeadsToProof,
    ) -> None:
        if len(split_vars) != len(positive_subs):
            raise ProofError(
                f"support-split: {len(split_vars)} variables but "
                f"{len(positive_subs)} positive branches"
            )
        self.base = base
        self.split_vars = tuple(split_vars)
        self.positive_subs = tuple(positive_subs)
        self.zero_sub = zero_sub
        super().__init__(
            (*positive_subs, zero_sub), conclude_lhs=base
        )

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        positives, zero = self.branch_predicates()
        for i, (sub, expected) in enumerate(zip(self.positive_subs, positives)):
            discharge(
                result,
                path,
                d.equivalent(sub.lhs(), expected),
                lambda: f"support-split branch {i} left-hand side",
            )
        discharge(
            result,
            path,
            d.equivalent(self.zero_sub.lhs(), zero),
            lambda: "support-split zero branch left-hand side",
        )
        # Completeness: over non-negative domains,
        #   base ⇒ ⋁ᵥ (v > 0) ∨ ⋀ᵥ (v = 0)
        # is a propositional tautology — verify the domain bound, not a
        # mask.
        result.obligations_checked += 1
        for v in self.split_vars:
            lo = getattr(v.domain, "lo", None)
            if lo is None:
                lo = min(v.domain.values(), default=0)
            if lo < 0:
                result.failures.append(
                    ProofFailure(
                        path,
                        f"support-split: variable {v.name} may be negative "
                        f"(domain {v.domain}); the case split is not "
                        "exhaustive",
                    )
                )
        self._check_rhs_agree(d, result, path)

    def branch_predicates(self) -> tuple[tuple[Predicate, ...], Predicate]:
        """The *expected* branch left-hand sides, rebuilt from the spec."""
        positives = tuple(
            self.base & ExprPredicate(v.ref() > 0) for v in self.split_vars
        )
        zero = self.base
        for v in self.split_vars:
            zero = zero & ExprPredicate(v.ref() == 0)
        return positives, zero


# ---------------------------------------------------------------------------
# The certificate object
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentCertificate:
    """One component's local obligation, checked on its *own* space.

    ``proof`` certifies ``p ↝ q`` (under ``fairness``) for ``component``
    *in isolation* — synthesized and re-checked by the existing
    dense/sparse pipeline on the component's small state space.  In the
    assume–guarantee reading this is the evidence for the component's
    ``Guarantees``: the helpful command the system-level rule tree leans
    on really is helpful in the component that contributes it.
    """

    component: "Program"
    p: Predicate
    q: Predicate
    fairness: str
    proof: LeadsToProof
    role: str = ""

    def describe(self) -> str:
        tag = f" [{self.role}]" if self.role else ""
        return (
            f"{self.component.name}{tag}: {self.p.describe()} ~> "
            f"{self.q.describe()} ({self.fairness} fairness)"
        )


@dataclass(frozen=True)
class CompositionalCertificate:
    """A checkable assume–guarantee certificate for a composed system.

    Records everything the compositional kernel
    (:func:`repro.semantics.compositional.check_compositional`) needs to
    re-establish ``p ↝ q`` of ``system`` without materializing its state
    space: the component programs (for the locality side conditions and
    the initially-conjunction consistency check), per-component
    certificates (checked on their own spaces via the dense/sparse
    pipeline), the system-level rule tree (every obligation footprint-
    local), and the ``guarantees``-calculus derivation that assembled the
    components' universal properties into the conclusion.
    """

    system: "Program"
    components: tuple["Program", ...]
    p: Predicate
    q: Predicate
    fairness: str
    proof: LeadsToProof
    component_certs: tuple[ComponentCertificate, ...] = ()
    guarantee: "Guarantees | None" = None
    guarantee_trail: tuple[str, ...] = ()
    notes: dict[str, Any] = field(default_factory=dict)

    def conclusion_text(self) -> str:
        return (
            f"{self.p.describe()} ~> {self.q.describe()}  "
            f"[{self.fairness} fairness, {len(self.components)} components]"
        )

    def count_nodes(self) -> int:
        return self.proof.count_nodes()

    def rule_histogram(self) -> dict[str, int]:
        return self.proof.rule_histogram()

    def render(self) -> str:
        lines = [f"compositional certificate: {self.conclusion_text()}"]
        if self.guarantee is not None:
            lines.append(f"  guarantee: {self.guarantee.describe()}")
        for step in self.guarantee_trail:
            lines.append(f"    · {step}")
        for cert in self.component_certs:
            lines.append(f"  component lemma: {cert.describe()}")
        lines.append(self.proof.render(indent=1))
        return "\n".join(lines)
