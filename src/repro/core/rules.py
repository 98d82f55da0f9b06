"""The leads-to proof system: the paper's five rules, mechanized.

From §2, ``↝`` is defined inductively by:

- **Transient**:     ``transient q  ⊢  true ↝ ¬q``
- **Implication**:   ``[p ⇒ q]  ⊢  p ↝ q``
- **Disjunction**:   ``⟨∀p ∈ S : p ↝ q⟩  ⊢  ⟨∃p ∈ S : p⟩ ↝ q``
- **Transitivity**:  ``p ↝ q,  q ↝ r  ⊢  p ↝ r``
- **PSP**:           ``p ↝ q,  s next t  ⊢  p ∧ s ↝ (q ∧ s) ∨ (¬s ∧ t)``

plus two *derived* constructions used by the paper's priority proof:

- :class:`Ensures` — ``(p∧¬q next p∨q), transient (p∧¬q) ⊢ p ↝ q``.
  This is a **macro**: :meth:`Ensures.expand` produces its derivation from
  the five primitive rules (Transient + PSP + Implication + Transitivity +
  Disjunction), and checking an ``Ensures`` node checks that expansion —
  so certificates built from ``Ensures`` still live inside the paper's
  proof system.
- :class:`MetricInduction` — well-founded induction over a finite variant
  ("induction on the cardinality of A*(i)", the paper's final liveness
  step): given disjoint-by-construction level predicates ``L₁ … L_M`` with
  ``L_m ↝ (q ∨ L₁ ∨ … ∨ L_{m-1})`` for every ``m``, and ``p ⇒ q ∨ ⋁L``,
  conclude ``p ↝ q``.  (Derivable from Disjunction + Transitivity by meta-
  induction on ``M``; provided as a rule so certificates stay linear-size.)

One extension leaves the paper's weak-fairness model:
:class:`StrongTransientBasis` concludes ``true ↝ ¬q`` under **strong**
fairness (its semantic leaf is the per-SCC enabled-exit criterion of
:mod:`repro.semantics.strong_fairness`).  ``Ensures(p, q,
fairness="strong")`` swaps it in for the weak basis, so the synthesizer
can certify verdicts like the pipeline∘allocator delivery property,
which holds only under strong fairness.  Certificates containing it are
judgments of the strong-fairness semantics, not the paper's §2 logic.

Every node is checked on the one domain its proof check resolved
(:meth:`~repro.core.proofs.ProofNode.check`), and each rule states its
obligations once, as calls of that domain's judgments
(:mod:`repro.semantics.domain`): side conditions ("the intermediate
predicates agree") are ``equivalent``/``valid`` — **semantic** equality
and entailment, mirroring the paper's free use of predicate calculus
between steps — and leaves are ``next``, ``transient`` and
``transient_strong``.  On sparse-routed spaces the domain is the
reachable subspace, so side conditions and leaves alike decide the
reachable-restricted judgment through the frontier kernels (see
:mod:`repro.semantics.sparse`); on the compositional tier it is the
footprint domain, which never enumerates the product.

``Ensures`` is the one rule a domain decides its own way, through its
``ensures`` judgment: the mask domains check the derivation
:meth:`Ensures.expand` (so the trusted base stays the paper's five
rules), while the footprint domain checks the two obligations
``p∧¬q next p∨q`` and ``transient (p∧¬q)`` directly.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.predicates import Predicate, TRUE
from repro.core.proofs import ProofCheckResult, ProofNode, discharge
from repro.errors import ProofError

__all__ = [
    "LeadsToProof",
    "TransientBasis",
    "StrongTransientBasis",
    "Implication",
    "Disjunction",
    "Transitivity",
    "PSP",
    "Ensures",
    "MetricInduction",
]


class LeadsToProof(ProofNode):
    """Base of leads-to proof nodes; each concludes ``lhs() ↝ rhs()``."""

    def lhs(self) -> Predicate:
        """Left-hand side of the concluded leads-to."""
        raise NotImplementedError

    def rhs(self) -> Predicate:
        """Right-hand side of the concluded leads-to."""
        raise NotImplementedError

    def conclusion_text(self) -> str:
        return f"{self.lhs().describe()} ~> {self.rhs().describe()}"

    def verify_semantically(self, program, *, fairness: str = "weak") -> bool:
        """Cross-check the conclusion with the model checker (not part of
        kernel checking; used by tests for end-to-end agreement).  Pass
        ``fairness="strong"`` for certificates built on
        :class:`StrongTransientBasis`."""
        if fairness == "strong":
            from repro.semantics.strong_fairness import check_leadsto_strong

            return check_leadsto_strong(program, self.lhs(), self.rhs()).holds
        from repro.semantics.leadsto import check_leadsto

        return check_leadsto(program, self.lhs(), self.rhs()).holds


class TransientBasis(LeadsToProof):
    """``transient q ⊢ true ↝ ¬q`` — the only rule that consumes fairness."""

    rule_name = "transient"

    def __init__(self, q: Predicate) -> None:
        self.q = q

    def lhs(self) -> Predicate:
        return TRUE

    def rhs(self) -> Predicate:
        return ~self.q

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        discharge(result, path, d.transient(self.q))


class StrongTransientBasis(LeadsToProof):
    """``transient[strong] q ⊢ true ↝ ¬q`` — the strong-fairness basis.

    Not one of the paper's rules: it consumes **strong** fairness ("if
    ``d`` is enabled infinitely often, ``d`` executes while enabled
    infinitely often").  The semantic leaf is
    :func:`repro.semantics.strong_fairness.check_transient_strong`: every
    SCC of the ``q``-subgraph has a fair command that some member enables
    and that exits the component from every member enabling it, so a
    strongly-fair run must descend the condensation DAG out of ``q``.
    Certificates containing this node conclude the strong-fairness
    judgment (check them end-to-end with
    ``verify_semantically(program, fairness="strong")``).
    """

    rule_name = "transient-strong"

    def __init__(self, q: Predicate) -> None:
        self.q = q

    def lhs(self) -> Predicate:
        return TRUE

    def rhs(self) -> Predicate:
        return ~self.q

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        discharge(result, path, d.transient_strong(self.q))


class Implication(LeadsToProof):
    """``[p ⇒ q] ⊢ p ↝ q`` — validity discharged over the proof's domain."""

    rule_name = "implication"

    def __init__(self, p: Predicate, q: Predicate) -> None:
        self.p = p
        self.q = q

    def lhs(self) -> Predicate:
        return self.p

    def rhs(self) -> Predicate:
        return self.q

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        discharge(result, path, d.valid(self.p, self.q))


class Disjunction(LeadsToProof):
    """``⟨∀i : pᵢ ↝ q⟩ ⊢ (⋁ᵢ pᵢ) ↝ q``.

    ``conclude_lhs`` optionally names the conclusion's left-hand side; the
    kernel verifies it is equivalent to the disjunction of the premises'
    left-hand sides (the paper routinely replaces ``(p∧¬q) ∨ (p∧q)`` by
    ``p`` this way).
    """

    rule_name = "disjunction"

    def __init__(
        self,
        subs: Sequence[LeadsToProof],
        *,
        conclude_lhs: Predicate | None = None,
    ) -> None:
        if not subs:
            raise ProofError("disjunction needs at least one premise")
        self.subs = tuple(subs)
        self._conclude_lhs = conclude_lhs

    def premises(self) -> tuple[ProofNode, ...]:
        return self.subs

    def lhs(self) -> Predicate:
        if self._conclude_lhs is not None:
            return self._conclude_lhs
        out = self.subs[0].lhs()
        for sub in self.subs[1:]:
            out = out | sub.lhs()
        return out

    def rhs(self) -> Predicate:
        return self.subs[0].rhs()

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        self._check_rhs_agree(d, result, path)
        if self._conclude_lhs is not None:
            fold = self.subs[0].lhs()
            for sub in self.subs[1:]:
                fold = fold | sub.lhs()
            discharge(
                result,
                path,
                d.equivalent(self._conclude_lhs, fold),
                lambda: "declared left-hand side is not equivalent to the "
                "disjunction of the premises' left-hand sides",
            )

    def _check_rhs_agree(self, d, result: ProofCheckResult, path: str) -> None:
        """Every premise concludes the first premise's right-hand side."""
        q = self.subs[0].rhs()
        for i, sub in enumerate(self.subs[1:], start=1):
            discharge(
                result,
                path,
                d.equivalent(sub.rhs(), q),
                lambda: f"premise {i} concludes a different right-hand side: "
                f"{sub.rhs().describe()} vs {q.describe()}",
            )


class Transitivity(LeadsToProof):
    """``p ↝ q, q ↝ r ⊢ p ↝ r``; the two ``q``s must be equivalent."""

    rule_name = "transitivity"

    def __init__(self, left: LeadsToProof, right: LeadsToProof) -> None:
        self.left = left
        self.right = right

    def premises(self) -> tuple[ProofNode, ...]:
        return (self.left, self.right)

    def lhs(self) -> Predicate:
        return self.left.lhs()

    def rhs(self) -> Predicate:
        return self.right.rhs()

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        mid_left, mid_right = self.left.rhs(), self.right.lhs()
        discharge(
            result,
            path,
            d.equivalent(mid_left, mid_right),
            lambda: "intermediate predicates disagree: "
            f"{mid_left.describe()} vs {mid_right.describe()}",
        )


class PSP(LeadsToProof):
    """``p ↝ q, s next t ⊢ (p ∧ s) ↝ (q ∧ s) ∨ (¬s ∧ t)``.

    The ``s next t`` obligation is a semantic leaf of this node.
    """

    rule_name = "psp"

    def __init__(self, sub: LeadsToProof, s: Predicate, t: Predicate) -> None:
        self.sub = sub
        self.s = s
        self.t = t

    def premises(self) -> tuple[ProofNode, ...]:
        return (self.sub,)

    def lhs(self) -> Predicate:
        return self.sub.lhs() & self.s

    def rhs(self) -> Predicate:
        return (self.sub.rhs() & self.s) | (~self.s & self.t)

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        discharge(result, path, d.next(self.s, self.t))


class Ensures(LeadsToProof):
    """Derived rule: ``p ensures q ⊢ p ↝ q``.

    ``p ensures q`` is the conjunction of ``p ∧ ¬q next p ∨ q`` (progress is
    never undone) and ``transient (p ∧ ¬q)`` (some fair command forces the
    exit).  Its derivation from the paper's primitives is::

        transient (p∧¬q)                        ⊢ true ↝ ¬(p∧¬q)       (Transient)
        …, (p∧¬q) next (p∨q)                    ⊢ (p∧¬q) ↝ X           (PSP)
              where X = (¬(p∧¬q) ∧ (p∧¬q)) ∨ (¬(p∧¬q) ∧ (p∨q)) ≡ q
        [X ⇒ q]                                 ⊢ X ↝ q                (Implication)
        …                                       ⊢ (p∧¬q) ↝ q           (Transitivity)
        [p∧q ⇒ q]                               ⊢ (p∧q) ↝ q            (Implication)
        …                                       ⊢ (p∧¬q)∨(p∧q) ↝ q     (Disjunction)
              with declared lhs p  (≡ (p∧¬q)∨(p∧q))

    On the mask domains, checking an ``Ensures`` node checks exactly
    this expansion, so the kernel's trusted base stays the paper's five
    rules; the footprint domain checks the two obligations of ``p
    ensures q`` directly (its ``ensures`` judgment).

    With ``fairness="strong"`` the expansion's basis is
    :class:`StrongTransientBasis` instead — the helpful command needs
    only be *enabled-exiting* on each component of ``p ∧ ¬q``, and the
    conclusion is the strong-fairness judgment.
    """

    rule_name = "ensures"

    def __init__(self, p: Predicate, q: Predicate, *, fairness: str = "weak") -> None:
        if fairness not in ("weak", "strong"):
            raise ProofError(f"unknown fairness notion {fairness!r}")
        self.p = p
        self.q = q
        self.fairness = fairness
        self._expansion: LeadsToProof | None = None

    def lhs(self) -> Predicate:
        return self.p

    def rhs(self) -> Predicate:
        return self.q

    def expand(self) -> LeadsToProof:
        """The derivation from primitive rules (cached)."""
        if self._expansion is None:
            p, q = self.p, self.q
            pnq = p & ~q
            if self.fairness == "strong":
                basis: LeadsToProof = StrongTransientBasis(pnq)
            else:
                basis = TransientBasis(pnq)  # true ↝ ¬(p∧¬q)
            psp = PSP(basis, s=pnq, t=p | q)  # (p∧¬q) ↝ X
            to_q = Implication(psp.rhs(), q)  # X ↝ q   (X ≡ q)
            left = Transitivity(psp, to_q)  # (p∧¬q) ↝ q
            right = Implication(p & q, q)  # (p∧q) ↝ q
            self._expansion = Disjunction([left, right], conclude_lhs=p)
        return self._expansion

    def premises(self) -> tuple[ProofNode, ...]:
        return (self.expand(),)

    def _local_check(self, d, result: ProofCheckResult, path: str):
        return d.ensures(self, result, path)


class MetricInduction(LeadsToProof):
    """Well-founded induction over a finite variant metric.

    Premises: for each level ``m`` (``1 ≤ m ≤ M``, in ``levels`` order), a
    proof of ``L_m ↝ (q ∨ L_1 ∨ … ∨ L_{m-1})``.  Side condition:
    ``p ⇒ q ∨ ⋁_m L_m``.  Conclusion: ``p ↝ q``.

    This is the paper's "induction on the cardinality of A*(i)" (§4.6) —
    the levels there are ``|A*(i)| = m``; the synthesizer instead uses SCC
    condensation ranks, which is the same construction with a finer metric.
    """

    rule_name = "metric-induction"

    def __init__(
        self,
        p: Predicate,
        q: Predicate,
        levels: Sequence[Predicate],
        subs: Sequence[LeadsToProof],
        *,
        support_table=None,
    ) -> None:
        if len(levels) != len(subs):
            raise ProofError(
                f"metric induction: {len(levels)} levels but {len(subs)} proofs"
            )
        self.p = p
        self.q = q
        self.levels = tuple(levels)
        self.subs = tuple(subs)
        #: Optional :class:`~repro.core.predicates.SupportTable` the levels
        #: are views of (attached by the synthesizer).  Purely an
        #: annotation: checking never consults it, but the batched kernel
        #: driver (:func:`repro.semantics.synthesis.
        #: check_certificate_batched`) and introspection tools do.
        self.support_table = support_table

    def premises(self) -> tuple[ProofNode, ...]:
        return self.subs

    def lhs(self) -> Predicate:
        return self.p

    def rhs(self) -> Predicate:
        return self.q

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        # Coverage: p ⇒ q ∨ ⋁ levels.
        cover = self.q
        for lv in self.levels:
            cover = cover | lv
        discharge(
            result,
            path,
            d.valid(self.p, cover),
            lambda: "p is not covered by q and the levels",
        )
        # Each level's premise must conclude L_m ↝ R with R ⇒ (q ∨ lower
        # levels); the weakening is derivable (Implication + Transitivity),
        # accepting it directly keeps hand-written proofs natural.
        lower = self.q
        for m, (lv, sub) in enumerate(zip(self.levels, self.subs)):
            discharge(
                result,
                path,
                d.equivalent(sub.lhs(), lv),
                lambda: f"level {m}: premise lhs {sub.lhs().describe()} is "
                "not the level predicate",
            )
            discharge(
                result,
                path,
                d.valid(sub.rhs(), lower),
                lambda: f"level {m}: premise rhs {sub.rhs().describe()} does "
                "not entail (q ∨ lower levels)",
            )
            lower = lower | lv
