"""Checkable proof objects — infrastructure and the safety kernel.

The paper's proofs are chains of inferences in a small logic.  This module
makes those proofs *artifacts*: trees of rule applications that a kernel
re-checks mechanically against a concrete finite program.  A check is one
question: :meth:`ProofNode.check` resolves the program's evaluation domain
(:mod:`repro.semantics.domain`) once, and every node of the tree is judged
on that domain — leaf obligations (``init``/``stable``/``transient``/
``next``/validity) by the semantic judgments, internal rules' side
conditions by semantic equivalence and entailment over the same states.
:meth:`ProofNode.check_on` is the one walk of every certificate: on a
mask domain or, for the leads-to rules of a compositional certificate,
on the footprint domain.

Two kernels share this infrastructure:

- the **safety kernel** (this module) mechanizes the paper's §3.3 proof
  pattern — the construction of a *shared universal property* from local
  component specifications:

  * :class:`StableLeaf`, :class:`InitLeaf` — semantic leaves;
  * :class:`StableConjunction` — ``stable p ∧ stable q ⊢ stable (p∧q)``
    (the "conjunction of stable properties" step);
  * :class:`ConstantExpressions` — from "each expression ``e_t`` is
    constant under every command" conclude ``stable P`` for any ``P`` that
    is a function of the ``e_t``-values (the "removing unused dummies"
    step: the paper's ∀k-quantified families, discharged wholesale);
  * :class:`UniversalLift` / :class:`InitLift` — the composition theorems:
    a universal property held by every component is a system property; an
    existential property held by some component is a system property;
  * :class:`InitWeaken`, :class:`InitConjunction`,
    :class:`InvariantIntro` — predicate-calculus glue (§3.3's final steps);

- the **leads-to kernel** (:mod:`repro.core.rules`) implements the paper's
  five inference rules plus the derived ``ensures`` and a well-founded
  metric induction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.expressions import Expr
from repro.core.predicates import Predicate
from repro.core.properties import Stable
from repro.errors import ProofError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.program import Program

__all__ = [
    "ProofFailure",
    "discharge",
    "ProofCheckResult",
    "ProofNode",
    "SafetyProof",
    "StableLeaf",
    "InitLeaf",
    "StableConjunction",
    "ConstantExpressions",
    "UniversalLift",
    "InitLift",
    "InitWeaken",
    "InitConjunction",
    "InvariantIntro",
]


@dataclass
class ProofFailure:
    """One failed obligation, with the path of the offending node."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def discharge(result: "ProofCheckResult", path: str, verdict, what=None) -> None:
    """Count one judgment's obligations into ``result``; record its failure.

    ``verdict`` is what a domain's judgment returned: it is true when the
    judgment holds, has ``obligations`` (how many semantic obligations
    deciding it took) and, for the failure text, ``message`` and
    ``explain()``.  ``what``, if given, is a callable naming the failed
    side condition; it is called only on failure, so a passing check
    builds no text.
    """
    result.obligations_checked += verdict.obligations
    if not verdict:
        message = verdict.explain() if what is None else f"{what()}: {verdict.message}"
        result.failures.append(ProofFailure(path, message))


@dataclass
class ProofCheckResult:
    """Outcome of checking a proof tree.

    ``mode`` records which kernel produced the verdict: ``"per-level"``
    for the obligation-at-a-time tree walk (:meth:`ProofNode.check`, the
    differential oracle), ``"batched"`` for the vectorized columnar
    kernel (:func:`repro.semantics.synthesis.check_certificate_batched`).
    Both kernels discharge the same obligations and count them the same
    way; the batched one discharges each obligation family in one
    segmented pass over all levels instead of one call per level.
    """

    failures: list[ProofFailure] = field(default_factory=list)
    nodes_checked: int = 0
    obligations_checked: int = 0
    mode: str = "per-level"

    @property
    def ok(self) -> bool:
        return not self.failures

    def absorb(self, sub: "ProofCheckResult", prefix: str = "") -> None:
        """Count a sub-check's rule applications and obligations into this
        result, and take its failures, their paths under ``prefix``."""
        self.nodes_checked += sub.nodes_checked
        self.obligations_checked += sub.obligations_checked
        self.failures.extend(
            ProofFailure(prefix + f.path, f.message) for f in sub.failures
        )

    def __bool__(self) -> bool:
        return self.ok

    def explain(self) -> str:
        if self.ok:
            return (
                f"proof OK: {self.nodes_checked} rule applications, "
                f"{self.obligations_checked} semantic obligations"
            )
        lines = [f"proof FAILS ({len(self.failures)} problem(s)):"]
        lines += [f"  - {f}" for f in self.failures]
        return "\n".join(lines)


class ProofNode:
    """Abstract base class of proof-tree nodes."""

    #: Short rule identifier for rendering and statistics.
    rule_name: str = "?"

    def premises(self) -> tuple["ProofNode", ...]:
        """Sub-proofs (empty for leaves)."""
        return ()

    def conclusion_text(self) -> str:
        """Rendering of the judgment this node concludes."""
        raise NotImplementedError

    def _local_check(self, d, result: ProofCheckResult, path: str):
        """Discharge this node's own side conditions and leaf obligations
        on the domain ``d`` of the program under check (``d.program``).

        Implementations append to ``result.failures`` and increment
        ``result.obligations_checked`` per semantic obligation discharged
        (:func:`discharge`).  They return ``None`` (the walk then goes on
        into :meth:`premises`) or, when a domain decides a derived rule
        its own way (:class:`~repro.core.rules.Ensures`), the sub-proofs
        left to check on ``d``.
        """
        raise NotImplementedError

    # -- kernel walk --------------------------------------------------------

    def check(self, program: "Program") -> ProofCheckResult:
        """Re-check the entire tree against ``program``.

        The domain is resolved once, by
        :func:`~repro.semantics.domain.domain_for` (the full space, or the
        reachable subspace above the sparse threshold), and the whole
        tree is checked on it (:meth:`check_on`).
        """
        from repro.semantics.domain import domain_for

        return self.check_on(domain_for(program, "the proof check"))

    def check_on(self, d) -> ProofCheckResult:
        """Re-check the entire tree on the domain ``d``: every leaf
        obligation and side condition is decided by ``d``'s judgments.

        The walk is memoized by node identity, so a subtree shared by
        several premises (the delivery certificate reuses one progress
        subtree across the branches of its support split) is checked
        once.
        """
        result = ProofCheckResult()
        self._check_into(d, result, self.rule_name, set())
        return result

    def _check_into(self, d, result: ProofCheckResult, path: str, seen: set) -> None:
        if id(self) in seen:
            return
        seen.add(id(self))
        result.nodes_checked += 1
        subs = self._local_check(d, result, path)
        for i, sub in enumerate(self.premises() if subs is None else subs):
            sub._check_into(d, result, f"{path}.{i}:{sub.rule_name}", seen)

    # -- metrics / rendering ----------------------------------------------------

    def count_nodes(self) -> int:
        """Total rule applications in the tree."""
        return 1 + sum(p.count_nodes() for p in self.premises())

    def rule_histogram(self) -> dict[str, int]:
        """Rule-name → occurrence count (macro rules count as themselves;
        use :meth:`repro.core.rules.Ensures.expand` to inspect primitives)."""
        hist: dict[str, int] = {}
        stack: list[ProofNode] = [self]
        while stack:
            node = stack.pop()
            hist[node.rule_name] = hist.get(node.rule_name, 0) + 1
            stack.extend(node.premises())
        return hist

    def render(self, indent: int = 0) -> str:
        """Indented multi-line rendering of the proof tree."""
        pad = "  " * indent
        lines = [f"{pad}{self.rule_name}: {self.conclusion_text()}"]
        for sub in self.premises():
            lines.append(sub.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} ⊢ {self.conclusion_text()}>"


# ===========================================================================
# Safety kernel
# ===========================================================================


class SafetyProof(ProofNode):
    """Base of safety-kernel nodes.  Each concludes a property of one of the
    forms ``init p``, ``stable p`` or ``invariant p``; :meth:`concludes`
    exposes the form tag and predicate for side-condition matching."""

    def concludes(self) -> tuple[str, Predicate]:
        """``(form, predicate)`` with form in {"init", "stable", "invariant"}."""
        raise NotImplementedError

    def conclusion_text(self) -> str:
        form, pred = self.concludes()
        return f"{form} {pred.describe()}"


def _expect_form(
    sub: SafetyProof, form: str, result: ProofCheckResult, path: str, role: str
) -> Predicate | None:
    got_form, pred = sub.concludes()
    if got_form != form:
        result.failures.append(
            ProofFailure(
                path, f"{role} must conclude a {form} property, got {got_form}"
            )
        )
        return None
    return pred


class StableLeaf(SafetyProof):
    """Leaf: ``stable p``, the property's own statement on the domain."""

    rule_name = "stable-leaf"

    def __init__(self, p: Predicate) -> None:
        self.p = p

    def concludes(self) -> tuple[str, Predicate]:
        return ("stable", self.p)

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        discharge(result, path, Stable(self.p).check_on(d))


class InitLeaf(SafetyProof):
    """Leaf: ``init p``, the domain's ``init`` judgment."""

    rule_name = "init-leaf"

    def __init__(self, p: Predicate) -> None:
        self.p = p

    def concludes(self) -> tuple[str, Predicate]:
        return ("init", self.p)

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        discharge(result, path, d.init(self.p))


class StableConjunction(SafetyProof):
    """``stable p₁, …, stable pₙ ⊢ stable (p₁ ∧ … ∧ pₙ)``.

    Sound because all the ``stable`` facts constrain the *same* command set
    (UNITY: stable is conjunction-closed).
    """

    rule_name = "stable-conj"

    def __init__(self, subs: Sequence[SafetyProof]) -> None:
        if not subs:
            raise ProofError("stable-conj needs at least one premise")
        self.subs = tuple(subs)

    def premises(self) -> tuple[ProofNode, ...]:
        return self.subs

    def concludes(self) -> tuple[str, Predicate]:
        out = self.subs[0].concludes()[1]
        for sub in self.subs[1:]:
            out = out & sub.concludes()[1]
        return ("stable", out)

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        for i, sub in enumerate(self.subs):
            _expect_form(sub, "stable", result, f"{path}[{i}]", "premise")


class ConstantExpressions(SafetyProof):
    """From "every command preserves the value of each ``e_t``" conclude
    ``stable P`` for any ``P`` that is a *function* of the ``e_t``-values.

    This packages the paper's §3.3 pattern: the ∀k-quantified families
    ``stable (C = c_i + k)`` (one per value of the dummy ``k``) say exactly
    that ``C - c_i`` is constant; "conjunction … removing unused dummies"
    then derives ``stable (C = Σ_j c_j)`` because that predicate depends
    only on constant quantities.  Both obligations are checked
    semantically:

    1. *constancy*: ``e_t(c(s)) = e_t(s)`` for every command ``c`` and
       state ``s`` (equivalently, the family ``∀k : stable (e_t = k)``);
    2. *functional dependence*: states agreeing on all ``e_t`` agree on
       ``P``.
    """

    rule_name = "constant-exprs"

    def __init__(self, exprs: Sequence[Expr], target: Predicate) -> None:
        if not exprs:
            raise ProofError("constant-exprs needs at least one expression")
        self.exprs = tuple(exprs)
        self.target = target

    def concludes(self) -> tuple[str, Predicate]:
        return ("stable", self.target)

    def conclusion_text(self) -> str:
        kept = ", ".join(str(e) for e in self.exprs)
        return f"stable {self.target.describe()}   [constants: {kept}]"

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        # Both obligations are decided on the domain's states (local ids):
        # the whole space on the dense tier, the reachable states on the
        # sparse one — where they give the reachable-restricted ``stable``,
        # like every other leaf checked there.
        n = d.size
        env = d.space.frontier_env(d.to_global(np.arange(n, dtype=np.int64)))

        # 1. constancy of each expression under every command
        values = []
        for expr in self.exprs:
            result.obligations_checked += 1
            vals = np.asarray(expr.eval_vec(env))
            if vals.ndim == 0:
                vals = np.full(n, vals[()])
            values.append(vals)
            for cmd in d.program.commands:
                moved = vals[d.succ_local(cmd)] != vals
                if moved.any():
                    bad = int(np.flatnonzero(moved)[0])
                    result.failures.append(
                        ProofFailure(
                            path,
                            f"expression {expr} is not constant under command "
                            f"{cmd.name} (e.g. at {d.state_at_local(bad)!r})",
                        )
                    )
                    break

        # 2. functional dependence of the target on the expression values
        result.obligations_checked += 1
        # Factorize the value tuple into dense group ids.
        gid = np.zeros(n, dtype=np.int64)
        stride = 1
        for vals in values:
            _, inv = np.unique(vals, return_inverse=True)
            gid += inv * stride
            stride *= int(inv.max()) + 1
        _, gid = np.unique(gid, return_inverse=True)
        tmask = d.pred_mask(self.target)
        trues = np.bincount(gid, weights=tmask).astype(np.int64)
        totals = np.bincount(gid)
        mixed = np.flatnonzero((trues != 0) & (trues != totals))
        if mixed.size:
            g = int(mixed[0])
            members = np.flatnonzero(gid == g)
            result.failures.append(
                ProofFailure(
                    path,
                    "target is not a function of the constant expressions: "
                    f"states {d.state_at_local(int(members[0]))!r} and "
                    f"{d.state_at_local(int(members[-1]))!r} agree on them but "
                    "disagree on the target",
                )
            )


class UniversalLift(SafetyProof):
    """Universal composition theorem as a rule: if every component of the
    system proves ``stable p``, the system has ``stable p``.

    Side conditions checked by the kernel:

    - every component is declared over the *system's* variable tuple
      (use :func:`repro.core.composition.lifted` to lift components);
    - every system command body appears among the components' commands
      (the system really is the union of these components);
    - all sub-proof conclusions agree with the lifted predicate (the
      domain's equivalence, not counted as an obligation).

    Sub-proofs are checked against their own component programs.
    """

    rule_name = "universal-lift"

    def __init__(self, parts: Sequence[tuple["Program", SafetyProof]]) -> None:
        if not parts:
            raise ProofError("universal-lift needs at least one component")
        self.parts = tuple(parts)

    def premises(self) -> tuple[ProofNode, ...]:
        # Premises are checked against *component* programs inside
        # _local_check; the default walk must not re-check them against the
        # system, so they are not exposed as plain premises.
        return ()

    def concludes(self) -> tuple[str, Predicate]:
        return ("stable", self.parts[0][1].concludes()[1])

    def conclusion_text(self) -> str:
        names = ", ".join(comp.name for comp, _ in self.parts)
        return f"stable {self.concludes()[1].describe()}   [by all of: {names}]"

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        program = d.program
        target = self.concludes()[1]
        covered: set[tuple] = set()
        for comp, sub in self.parts:
            sub_path = f"{path}<{comp.name}>"
            if comp.variables != program.variables:
                result.failures.append(
                    ProofFailure(
                        sub_path,
                        "component is not declared over the system's variables "
                        "(lift it with repro.core.composition.lifted)",
                    )
                )
                continue
            pred = _expect_form(sub, "stable", result, sub_path, "component proof")
            if pred is None:
                continue
            if not d.equivalent(pred, target):
                result.failures.append(
                    ProofFailure(
                        sub_path,
                        f"component concludes stable {pred.describe()}, which is "
                        f"not equivalent to the lifted predicate",
                    )
                )
                continue
            result.absorb(sub.check(comp), f"{sub_path}.")
            covered |= {c.body_key() for c in comp.commands}
        missing = [c.name for c in program.commands if c.body_key() not in covered]
        if missing:
            result.failures.append(
                ProofFailure(
                    path,
                    f"system commands {missing} are not covered by any component",
                )
            )

    def render(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.rule_name}: {self.conclusion_text()}"]
        for comp, sub in self.parts:
            lines.append(f"{pad}  in component {comp.name}:")
            lines.append(sub.render(indent + 2))
        return "\n".join(lines)

    def count_nodes(self) -> int:
        return 1 + sum(sub.count_nodes() for _, sub in self.parts)


class InitLift(SafetyProof):
    """Existential composition theorem for ``init``: a component's
    ``init p`` is a system property, because the system's ``initially`` is
    the conjunction of the components' and so entails the component's.

    Side condition (one obligation): ``init`` of the component's
    ``initially`` on the system's domain — the system's ``initially``
    entails it.  Every domain holds all initial states, so the check is
    exact on the reachable subspace too.
    """

    rule_name = "init-lift"

    def __init__(self, component: "Program", sub: SafetyProof) -> None:
        self.component = component
        self.sub = sub

    def premises(self) -> tuple[ProofNode, ...]:
        return ()

    def concludes(self) -> tuple[str, Predicate]:
        return ("init", self.sub.concludes()[1])

    def conclusion_text(self) -> str:
        return f"init {self.concludes()[1].describe()}   [from {self.component.name}]"

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        pred = _expect_form(self.sub, "init", result, path, "component proof")
        if pred is None:
            return
        entailed = d.init(self.component.init)
        discharge(
            result,
            path,
            entailed,
            lambda: f"system initially does not entail {self.component.name}'s "
            "initially (is the component part of this system?)",
        )
        if not entailed:
            return
        result.absorb(self.sub.check(self.component), f"{path}.")

    def count_nodes(self) -> int:
        return 1 + self.sub.count_nodes()


class InitWeaken(SafetyProof):
    """``init p, [p ⇒ q] ⊢ init q`` (predicate-calculus step of §3.3)."""

    rule_name = "init-weaken"

    def __init__(self, sub: SafetyProof, q: Predicate) -> None:
        self.sub = sub
        self.q = q

    def premises(self) -> tuple[ProofNode, ...]:
        return (self.sub,)

    def concludes(self) -> tuple[str, Predicate]:
        return ("init", self.q)

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        pred = _expect_form(self.sub, "init", result, path, "premise")
        if pred is not None:
            discharge(result, path, d.valid(pred, self.q))


class InitConjunction(SafetyProof):
    """``init p₁, …, init pₙ ⊢ init (p₁ ∧ … ∧ pₙ)``."""

    rule_name = "init-conj"

    def __init__(self, subs: Sequence[SafetyProof]) -> None:
        if not subs:
            raise ProofError("init-conj needs at least one premise")
        self.subs = tuple(subs)

    def premises(self) -> tuple[ProofNode, ...]:
        return self.subs

    def concludes(self) -> tuple[str, Predicate]:
        out = self.subs[0].concludes()[1]
        for sub in self.subs[1:]:
            out = out & sub.concludes()[1]
        return ("init", out)

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        for i, sub in enumerate(self.subs):
            _expect_form(sub, "init", result, f"{path}[{i}]", "premise")


class InvariantIntro(SafetyProof):
    """``init p, stable p ⊢ invariant p`` (the paper's definition of
    ``invariant``); the two premise predicates must be equivalent."""

    rule_name = "invariant-intro"

    def __init__(self, init_proof: SafetyProof, stable_proof: SafetyProof) -> None:
        self.init_proof = init_proof
        self.stable_proof = stable_proof

    def premises(self) -> tuple[ProofNode, ...]:
        return (self.init_proof, self.stable_proof)

    def concludes(self) -> tuple[str, Predicate]:
        return ("invariant", self.init_proof.concludes()[1])

    def _local_check(self, d, result: ProofCheckResult, path: str) -> None:
        p_init = _expect_form(self.init_proof, "init", result, path, "first premise")
        p_stab = _expect_form(
            self.stable_proof, "stable", result, path, "second premise"
        )
        if p_init is None or p_stab is None:
            return
        discharge(
            result,
            path,
            d.equivalent(p_init, p_stab),
            lambda: "init and stable premises conclude inequivalent predicates: "
            f"{p_init.describe()} vs {p_stab.describe()}",
        )
