"""Compositional certificate checking: the product, never materialized.

:func:`check_compositional` re-establishes the conclusion of a
:class:`~repro.core.compositional.CompositionalCertificate` without ever
building the composed system's state space.  It can, because every
obligation it discharges is *local*:

- **Rule-tree obligations** mention only the variables of the predicates
  and commands involved; the logic's all-states semantics quantifies over
  every assignment of the rest, so each obligation is decided exactly on
  its footprint by :class:`~repro.semantics.obligations.FootprintKernel`.
  The tree is checked by the one proof walk of every certificate,
  :meth:`~repro.core.proofs.ProofNode.check_on`, on
  :class:`FootprintSpace` — the third evaluation domain, whose
  judgments are these footprint decisions.
- **Interference freedom** is per command: a command whose write set is
  disjoint from ``vars(p) ∪ vars(q)`` keeps both predicates' values, so
  once ``p ⇒ q`` is established it cannot break ``p next q`` (the frame
  rule — the command is skipped without evaluation); interfering
  commands are checked through their symbolic ``wp``.
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
Wherever the kernel cannot decide an obligation locally — a predicate
with no expression form, a footprint beyond the cap, a non-symbolic
command, a helpful command with several branches — it *refuses*: the
check fails with an explanation saying "refused", never an exception,
and it never guesses.  The same walk on the full space of small
instances is the differential oracle for exactly this contract
(``tests/test_compositional.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.compositional import CompositionalCertificate
from repro.core.predicates import FALSE
from repro.core.proofs import ProofCheckResult, ProofFailure, discharge
from repro.semantics.obligations import (
    FootprintKernel,
    FootprintResult,
    _LazyFailure,
    _symbolic,
)
from repro.semantics.synthesis import check_certificate_batched

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.program import Program

__all__ = ["CompositionalCheckResult", "FootprintSpace", "check_compositional"]


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


class FootprintSpace:
    """The third evaluation domain: a system's states, never enumerated.

    It has the rule judgments only (no masks, ids or graph), each decided
    by the :class:`~repro.semantics.obligations.FootprintKernel` on the
    footprint of its obligation.  ``init p`` is ``initially ⇒ p``,
    ``transient_strong`` the weak criterion (a sound strengthening), and
    ``ensures`` checks ``p∧¬q next p∨q`` and ``transient (p∧¬q)``.  What
    the kernel cannot decide is a refusal — a plain failing
    ``FootprintResult`` saying "refused", never an exception — and a
    decided failure is a ``_LazyFailure``.  Each judgment starts a fresh
    kernel scope (:meth:`FootprintKernel.release`).
    """

    def __init__(self, system: "Program", kernel: FootprintKernel) -> None:
        self.program = system
        self.kernel = kernel
        #: ``next`` obligations discharged by the frame rule.
        self.frame_skips = 0
        self._commands = [(cmd, cmd.writes()) for cmd in system.commands]
        self._fair = [cw for cw in self._commands if cw[0].name in system.fair_names]

    def _judge(self, preds, decide, *, keep: bool = False) -> FootprintResult:
        """``decide()`` in a fresh kernel scope, or in the current one if
        ``keep``; refused if a predicate has no expression form."""
        if not keep:
            self.kernel.release()
        for pred in preds:
            if not _symbolic(pred):  # neither text nor footprint is known
                return FootprintResult(
                    False, f"refused: {pred.describe()} has no expression form"
                )
        return decide()

    def valid(self, p, q) -> FootprintResult:
        return self._judge((p, q), lambda: self.kernel.entails(p, q))

    def init(self, p) -> FootprintResult:
        return self.valid(self.program.init, p)

    def equivalent(self, a, b) -> FootprintResult:
        return self._judge((a, b), lambda: self.kernel.equal(a, b))

    def valid_wp(self, pre, cmd, post) -> FootprintResult:
        return self._judge((pre, post), lambda: self.kernel.check_wp(pre, cmd, post))

    def next(self, p, q) -> FootprintResult:
        """Linear stability when ``p`` and ``q`` are one linear equality
        and it holds (it is not necessary); else one obligation per
        command.  A command writing none of ``vars(p) ∪ vars(q)`` keeps
        both values, so it may be skipped (the frame rule) once ``p ⇒
        q`` holds, decided on the first one."""
        return self._judge((p, q), lambda: self._next(p, q))

    def _next(self, p, q) -> FootprintResult:
        if p is q or p.describe() == q.describe():
            stable = self.kernel.check_linear_stable(p, self.program.commands)
            if stable is not None and stable.ok:
                return stable
        relevant = p.variables() | q.variables()
        framed = None
        for cmd, writes in self._commands:
            if writes.isdisjoint(relevant):
                if framed is None:
                    framed = self.kernel.entails(p, q).ok
                if framed:
                    self.frame_skips += 1
                    continue
            res = self.kernel.check_wp(p, cmd, q)
            if not res.ok:
                return res.reworded(
                    lambda: f"{p.describe()} next {q.describe()}: ",
                    obligations=len(self._commands),
                )
        return FootprintResult(True, obligations=len(self._commands))

    def transient(self, p) -> FootprintResult:
        """One fair command exits ``p`` from every ``p``-state; writers of
        ``p``'s variables are tried first."""
        return self._judge((p,), lambda: self._transient(p))

    transient_strong = transient

    def _transient(self, p) -> FootprintResult:
        if not self._fair:
            # With D empty nothing is forced to execute, so only the
            # unsatisfiable predicate is transient.
            empty = self.kernel.entails(p, FALSE)
            return empty if empty.ok else empty.reworded(lambda: "D = ∅: ")
        # One refused candidate refuses the judgment, and a candidate's
        # dropped conjuncts make the failure inexact.
        region_vars = p.variables()
        refused = None
        dropped = ()
        exit_pred = ~p
        for cmd, _ in sorted(
            self._fair, key=lambda cw: (cw[1].isdisjoint(region_vars), cw[0].name)
        ):
            last = self.kernel.check_wp(p, cmd, exit_pred)
            if last.ok:
                return last
            if not isinstance(last, _LazyFailure):
                refused = last
            dropped += last.dropped
        if refused is not None:
            return refused.reworded(
                lambda: f"no fair command is shown to exit {p.describe()}: "
            )
        return _LazyFailure(
            lambda: f"no fair command exits {p.describe()} from every region "
            f"state (last candidate: {last.message})",
            dropped=dropped,
        )

    def ensures(self, node, result, path: str) -> tuple:
        region, progress = node.p & ~node.q, node.p | node.q
        discharge(
            result, path, self.next(region, progress), lambda: "ensures next obligation"
        )
        # In next's kernel scope: the region's masks serve both obligations.
        discharge(
            result,
            path,
            self._judge((region,), lambda: self._transient(region), keep=True),
            lambda: "ensures transient obligation",
        )
        return ()


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
    space: FootprintSpace,
    result: CompositionalCheckResult,
) -> None:
    """The conjunction of component ``initially`` predicates is satisfiable.

    Checked symbolically: ``init ⇒ false`` must *fail* on the footprint,
    with a counterexample.  Constant-binding conjuncts (the common case —
    every scenario pins its variables initially) are exact; a predicate
    with no expression form, or oversized conjuncts the kernel had to
    drop, leave the sat-finding inconclusive and we refuse.
    """
    init = None
    for comp in cert.components:
        init = comp.init if init is None else init & comp.init
    if init is None:
        return
    result.obligations_checked += 1
    res = space.valid(init, FALSE)
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
    elif not isinstance(res, _LazyFailure):  # refused before deciding
        result.failures.append(ProofFailure("initially", res.message))


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
    space = FootprintSpace(cert.system, kernel)
    _check_init_consistency(cert, space, result)
    if check_components:
        _check_components(cert, result)
    result.absorb(cert.proof.check_on(space))
    result.frame_skips = space.frame_skips
    # The tree must conclude what the certificate claims.
    for got, want, side in (
        (cert.proof.lhs(), cert.p, "left"),
        (cert.proof.rhs(), cert.q, "right"),
    ):
        discharge(
            result,
            "conclusion",
            space.equivalent(got, want),
            lambda: f"rule tree concludes a different {side}-hand side",
        )
    result.footprint_evaluations = kernel.evaluations
    result.notes["footprint_spaces"] = len(kernel._spaces)
    result.notes["obligations_decided"] = sum(kernel.decided.values())
    result.notes["obligations_by_shape"] = sum(kernel.by_shape.values())
    return result
