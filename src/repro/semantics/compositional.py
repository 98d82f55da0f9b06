"""Compositional certificate checking: the product, never materialized.

:func:`check_compositional` re-establishes the conclusion of a
:class:`~repro.core.compositional.CompositionalCertificate` without ever
building the composed system's state space.  It can, because every
obligation it discharges is *local*:

- **Rule-tree obligations** mention only the variables of the predicates
  and commands involved; the logic's all-states semantics quantifies over
  every assignment of the rest, so each obligation is decided exactly on
  its footprint by :class:`~repro.semantics.obligations.FootprintKernel`.
- **Interference freedom** is per command: a command whose write set is
  disjoint from ``vars(p) ∪ vars(q)`` cannot destroy ``p ∧ ¬q`` (the
  frame rule — the ``next`` obligation reduces to the propositional
  tautology ``p ∧ ¬q ⇒ p ∨ q`` and is skipped without evaluation);
  interfering commands are checked through their symbolic ``wp``.
- **Locality side conditions** are the paper's pairwise composability
  checks (:func:`repro.core.composition.compatibility_report` with
  ``check_init=False`` — shared variables must agree on domain and
  locality), plus a symbolic consistency check of the conjunction of the
  components' ``initially`` predicates.
- **Component lemmas** (the certificate's
  :class:`~repro.core.compositional.ComponentCertificate` leaves) are
  checked on their *own* small spaces by the batched certificate check
  (per-level for non-columnar trees), tier-routed per component.

The walk is memoized by node identity, so certificates that share
subtrees (the delivery certificate reuses one progress subtree across
every branch of its support split) check each shared node once — total
work linear in the number of components.  Below the walk, the one
:class:`~repro.semantics.obligations.FootprintKernel` of a check decides
each obligation *shape* once: the stages of a composed stack are copies
of a few component shapes, so their obligations repeat up to a renaming
of variables, and a repeat is answered from the kernel's memo.
``notes["obligations_decided"]`` and ``notes["obligations_by_shape"]``
count the two.

Refusals, never unsound acceptances
-----------------------------------
Wherever the kernel cannot decide an obligation locally — a footprint
beyond the cap, a non-symbolic command, a rule that needs product-global
reasoning (bare transient bases, metric induction) — it *refuses*: the
check fails with an explanation, it never guesses.  The dense per-level
kernel on small instances is the differential oracle for exactly this
contract (``tests/test_compositional.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.compositional import (
    CompositionalCertificate,
    StrongEnsures,
    SupportSplit,
    linear_terms,
)
from repro.core.proofs import ProofCheckResult, ProofFailure
from repro.core.rules import (
    Disjunction,
    Ensures,
    Implication,
    LeadsToProof,
    PSP,
    Transitivity,
)
from repro.semantics.obligations import FootprintKernel
from repro.semantics.synthesis import check_certificate_batched

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.commands import Command
    from repro.core.predicates import Predicate
    from repro.core.program import Program

__all__ = ["CompositionalCheckResult", "check_compositional"]


@dataclass
class CompositionalCheckResult(ProofCheckResult):
    """A :class:`ProofCheckResult` plus composition-level accounting."""

    mode: str = "compositional"
    components_checked: int = 0
    frame_skips: int = 0
    footprint_evaluations: int = 0
    notes: dict = field(default_factory=dict)

    def explain(self) -> str:
        base = super().explain()
        if not self.ok:
            return base
        return (
            f"{base}; {self.components_checked} component lemma(s), "
            f"{self.frame_skips} frame-rule skips, "
            f"{self.footprint_evaluations} footprint evaluations, "
            f"{self.notes.get('obligations_decided', 0)} footprint "
            "obligation(s) decided and "
            f"{self.notes.get('obligations_by_shape', 0)} answered by shape"
        )


class _Walker:
    """One memoized walk of a certificate's rule tree."""

    def __init__(
        self,
        system: "Program",
        kernel: FootprintKernel,
        result: CompositionalCheckResult,
    ) -> None:
        self.system = system
        self.kernel = kernel
        self.result = result
        self._seen: set[int] = set()
        # Each command with its write set, computed once.  ``Program``
        # already computed every write set at construction, so none of
        # these calls can fail here.
        self.commands: list[tuple["Command", frozenset]] = [
            (cmd, cmd.writes()) for cmd in system.commands
        ]

    # -- plumbing ----------------------------------------------------------

    def fail(self, path: str, message: str) -> None:
        self.result.failures.append(ProofFailure(path, message))

    def obligation(self, path: str, res, label: str) -> None:
        self.result.obligations_checked += 1
        if not res.ok:
            self.fail(path, f"{label}: {res.message}")

    # -- the next-obligation workhorse ------------------------------------

    def check_next(
        self, path: str, pre: "Predicate", post: "Predicate", label: str
    ) -> None:
        """``pre next post`` per command: frame rule, else symbolic wp.

        Sound only when ``pre ⇒ post`` propositionally on the frame case
        — callers pass ``pre = p ∧ ¬q`` and ``post = p ∨ q``, for which a
        command not writing ``vars(pre) ∪ vars(post)`` preserves ``pre``
        and ``pre ⇒ post`` holds by construction.
        """
        relevant = pre.variables() | post.variables()
        for cmd, writes in self.commands:
            if writes.isdisjoint(relevant):
                self.result.frame_skips += 1
                self.result.obligations_checked += 1
                continue
            res = self.kernel.check_wp(pre, cmd, post)
            self.obligation(path, res, f"{label} (command {cmd.name})")

    # -- dispatch ----------------------------------------------------------

    def walk(self, node: LeadsToProof, path: str) -> None:
        if id(node) in self._seen:
            return
        self._seen.add(id(node))
        self.result.nodes_checked += 1
        # A node's obligations share masks and key parts; its
        # children's do not (FootprintKernel.release).
        self.kernel.release()
        if isinstance(node, Implication):
            self.obligation(
                path, self.kernel.entails(node.p, node.q), "implication"
            )
        elif isinstance(node, Transitivity):
            self.obligation(
                path,
                self.kernel.equal(node.left.rhs(), node.right.lhs()),
                "transitivity glue",
            )
            self.walk(node.left, f"{path}.0:{node.left.rule_name}")
            self.walk(node.right, f"{path}.1:{node.right.rule_name}")
        elif isinstance(node, SupportSplit):
            self._walk_support_split(node, path)
        elif isinstance(node, Disjunction):
            self._walk_disjunction(node, path)
        elif isinstance(node, PSP):
            self._walk_psp(node, path)
        elif isinstance(node, StrongEnsures):
            self._walk_strong_ensures(node, path)
        elif isinstance(node, Ensures):
            self._walk_ensures(node, path)
        else:
            self.fail(
                path,
                f"refused: rule {node.rule_name!r} needs product-global "
                "reasoning the compositional kernel does not perform",
            )

    # -- per-rule checks ---------------------------------------------------

    def _subs_rhs_agree(self, node: Disjunction, path: str) -> None:
        q = node.subs[0].rhs()
        for i, sub in enumerate(node.subs[1:], start=1):
            self.obligation(
                path,
                self.kernel.equal(sub.rhs(), q),
                f"disjunction premise {i} right-hand side",
            )

    def _walk_disjunction(self, node: Disjunction, path: str) -> None:
        self._subs_rhs_agree(node, path)
        if node._conclude_lhs is not None:
            fold = node.subs[0].lhs()
            for sub in node.subs[1:]:
                fold = fold | sub.lhs()
            self.obligation(
                path,
                self.kernel.equal(node._conclude_lhs, fold),
                "disjunction declared left-hand side",
            )
        for i, sub in enumerate(node.subs):
            self.walk(sub, f"{path}.{i}:{sub.rule_name}")

    def _walk_support_split(self, node: SupportSplit, path: str) -> None:
        # Branch shapes: each premise must start exactly from its case.
        positives, zero = node.branch_predicates()
        for i, (sub, expected) in enumerate(
            zip(node.positive_subs, positives)
        ):
            self.obligation(
                path,
                self.kernel.equal(sub.lhs(), expected),
                f"support-split branch {i} left-hand side",
            )
        self.obligation(
            path,
            self.kernel.equal(node.zero_sub.lhs(), zero),
            "support-split zero branch left-hand side",
        )
        # Completeness: over non-negative domains,
        #   base ⇒ ⋁ᵥ (v > 0) ∨ ⋀ᵥ (v = 0)
        # is a propositional tautology — verify the domain bound, not a
        # product mask.
        self.result.obligations_checked += 1
        for v in node.split_vars:
            lo = getattr(v.domain, "lo", None)
            if lo is None:
                lo = min(v.domain.values(), default=0)
            if lo < 0:
                self.fail(
                    path,
                    f"support-split: variable {v.name} may be negative "
                    f"(domain {v.domain}); the case split is not "
                    "exhaustive",
                )
        self._subs_rhs_agree(node, path)
        for i, sub in enumerate(node.subs):
            self.walk(sub, f"{path}.{i}:{sub.rule_name}")

    def _walk_psp(self, node: PSP, path: str) -> None:
        # ``s next t`` — when s and t are the same linear equality this is
        # the conservation route: per-command weighted write deltas, an
        # obligation over vars(command) only.
        if node.s is node.t or node.s.describe() == node.t.describe():
            stable = self.kernel.check_linear_stable(
                node.s, self.system.commands
            )
            if stable.ok or _is_linear_equality(node.s):
                self.obligation(path, stable, "psp stability (linear)")
                self.walk(node.sub, f"{path}.0:{node.sub.rule_name}")
                return
        self.check_next(path, node.s, node.t, "psp next obligation")
        self.walk(node.sub, f"{path}.0:{node.sub.rule_name}")

    def _walk_ensures(self, node: Ensures, path: str) -> None:
        region = node.p & ~node.q
        self.check_next(
            path, region, node.p | node.q, "ensures next obligation"
        )
        # transient (p ∧ ¬q): some fair command exits the region from
        # every region state.  Weak-rule obligations are checked even for
        # fairness="strong" nodes — strictly stronger, hence sound.
        self.result.obligations_checked += 1
        region_vars = region.variables()
        candidates = sorted(
            (cw for cw in self.commands if cw[0].name in self.system.fair_names),
            key=lambda cw: (cw[1].isdisjoint(region_vars), cw[0].name),
        )
        # Only the last failing candidate is kept, and its message is read
        # only when every candidate fails.
        last = None
        exit_pred = ~region
        for cmd, _ in candidates:
            last = self.kernel.check_wp(region, cmd, exit_pred)
            if last.ok:
                return
        why = (
            last.message
            if last is not None
            else "the program has no fair commands (D = ∅)"
        )
        self.fail(
            path,
            "ensures transient obligation: no fair command exits "
            f"{region.describe()} from every region state (last candidate: "
            f"{why})",
        )

    def _walk_strong_ensures(self, node: StrongEnsures, path: str) -> None:
        if node.helpful not in self.system.fair_names:
            self.fail(
                path,
                f"helpful command {node.helpful!r} is not in the fair "
                f"subset of {self.system.name}",
            )
            return
        rho = node.region()
        self.check_next(
            path, rho, node.p | node.q, "strong-ensures next obligation"
        )
        try:
            en = node.enabled_predicate(self.system)
        except Exception as exc:
            self.fail(path, f"refused: {exc}")
            return
        cmd = self.system.command_named(node.helpful)
        res = self.kernel.check_wp(rho & en, cmd, node.q)
        self.obligation(path, res, "strong-ensures helpful wp")
        self.obligation(
            path,
            self.kernel.equal(node.recurrence.lhs(), rho),
            "strong-ensures recurrence start",
        )
        self.obligation(
            path,
            self.kernel.entails(
                node.recurrence.rhs(), node.recurrence_target(self.system)
            ),
            "strong-ensures recurrence target",
        )
        self.walk(node.recurrence, f"{path}.0:{node.recurrence.rule_name}")


def _is_linear_equality(pred: "Predicate") -> bool:
    from repro.core.expressions import EqE

    try:
        expr = pred.as_expr()
    except Exception:
        return False
    return (
        isinstance(expr, EqE)
        and linear_terms(expr.left) is not None
        and linear_terms(expr.right) is not None
    )


# ---------------------------------------------------------------------------
# Composition-level side conditions
# ---------------------------------------------------------------------------


def _check_locality(
    cert: CompositionalCertificate, result: CompositionalCheckResult
) -> None:
    """Pairwise composability (shared vars agree on domain/locality)."""
    from repro.core.composition import compatibility_report

    comps = cert.components
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            result.obligations_checked += 1
            report = compatibility_report(comps[i], comps[j], check_init=False)
            if not report.ok:
                result.failures.append(
                    ProofFailure("locality", report.explain())
                )


def _check_membership(
    cert: CompositionalCertificate, result: CompositionalCheckResult
) -> None:
    """The certified system really is the union of the listed components."""
    sys_cmds = {c.name for c in cert.system.commands}
    comp_cmds = set()
    for comp in cert.components:
        comp_cmds |= {c.name for c in comp.commands}
    result.obligations_checked += 1
    if sys_cmds != comp_cmds:
        extra = sorted(sys_cmds - comp_cmds)
        missing = sorted(comp_cmds - sys_cmds)
        result.failures.append(
            ProofFailure(
                "membership",
                "system commands are not the union of component commands "
                f"(unaccounted: {extra}; missing: {missing})",
            )
        )


def _check_init_consistency(
    cert: CompositionalCertificate,
    kernel: FootprintKernel,
    result: CompositionalCheckResult,
) -> None:
    """The conjunction of component ``initially`` predicates is satisfiable.

    Checked symbolically: ``init ⇒ false`` must *fail* on the footprint.
    Constant-binding conjuncts (the common case — every scenario pins its
    variables initially) are exact; if the kernel had to drop oversized
    conjuncts the sat-finding is inconclusive and we refuse.
    """
    from repro.core.expressions import BoolConst
    from repro.core.predicates import ExprPredicate

    init = None
    for comp in cert.components:
        init = comp.init if init is None else init & comp.init
    if init is None:
        return
    result.obligations_checked += 1
    res = kernel.entails(init, ExprPredicate(BoolConst(False)))
    if res.ok:
        result.failures.append(
            ProofFailure(
                "initially",
                "conjunction of component initially predicates is "
                "unsatisfiable (no initial state of the composition)",
            )
        )
    elif res.dropped:
        result.failures.append(
            ProofFailure(
                "initially",
                "refused: initially-conjunction satisfiability is "
                "inconclusive after dropping oversized conjunct(s) "
                f"{res.dropped}",
            )
        )


def _check_components(
    cert: CompositionalCertificate, result: CompositionalCheckResult
) -> None:
    """Re-check each component lemma on the component's own space.

    These go through :func:`check_certificate_batched` (per-level for
    non-columnar trees), which tier-routes dense/sparse per component —
    the routing that lets a big component stay checkable while the
    *product* never materializes.
    """
    for cc in cert.component_certs:
        sub = check_certificate_batched(cc.proof, cc.component)
        result.components_checked += 1
        result.obligations_checked += sub.obligations_checked
        if not sub.ok:
            for f in sub.failures:
                result.failures.append(
                    ProofFailure(
                        f"component {cc.component.name}.{f.path}", f.message
                    )
                )
        else:
            ok_l = cc.proof.lhs().describe() == cc.p.describe()
            ok_r = cc.proof.rhs().describe() == cc.q.describe()
            if not (ok_l and ok_r):
                result.failures.append(
                    ProofFailure(
                        f"component {cc.component.name}",
                        "lemma proof concludes "
                        f"{cc.proof.lhs().describe()} ~> "
                        f"{cc.proof.rhs().describe()}, not the declared "
                        f"{cc.p.describe()} ~> {cc.q.describe()}",
                    )
                )


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def check_compositional(
    cert: CompositionalCertificate,
    *,
    check_components: bool = True,
) -> CompositionalCheckResult:
    """Re-check a compositional certificate without building the product.

    Discharges, in order: the pairwise locality side conditions, the
    system/component membership check, the initially-conjunction
    consistency check, the per-component lemmas (each on its own space),
    and the system-level rule tree (every obligation projected onto its
    variable footprint).  Time is linear in the number of components for
    certificates whose obligations have bounded footprints — the product
    state space is never enumerated, indexed, or even sized.
    """
    kernel = FootprintKernel()
    result = CompositionalCheckResult()
    _check_locality(cert, result)
    _check_membership(cert, result)
    _check_init_consistency(cert, kernel, result)
    if check_components:
        _check_components(cert, result)
    walker = _Walker(cert.system, kernel, result)
    walker.walk(cert.proof, f"0:{cert.proof.rule_name}")
    # The tree must conclude what the certificate claims.
    result.obligations_checked += 2
    for got, want, side in (
        (cert.proof.lhs(), cert.p, "left"),
        (cert.proof.rhs(), cert.q, "right"),
    ):
        res = kernel.equal(got, want)
        if not res.ok:
            result.failures.append(
                ProofFailure(
                    "conclusion",
                    f"rule tree concludes a different {side}-hand side: "
                    f"{res.message}",
                )
            )
    result.footprint_evaluations = kernel.evaluations
    result.notes["footprint_spaces"] = len(kernel._spaces)
    result.notes["obligations_decided"] = sum(kernel.decided.values())
    result.notes["obligations_by_shape"] = sum(kernel.by_shape.values())
    return result
