"""The rule judgments of the mask domains, and their verdict.

A property or proof rule states its obligations once, as calls of its
domain's judgments (:mod:`repro.semantics.domain`).  :class:`MaskJudgments`
holds their one body each for the two domains that decide on predicate
masks — :class:`~repro.semantics.domain.FullSpace` and
:class:`~repro.semantics.sparse.explorer.ReachableSubspace` — and the
footprint domain
(:class:`~repro.semantics.compositional.FootprintSpace`) provides the
same methods.  The class lives apart from :mod:`repro.semantics.domain`
because the sparse explorer, which that module's routing imports,
derives from it.  Because commands are total deterministic functions,
``p ⇒ wp.c.q`` over a domain's states is the single vectorized test
``¬p_mask ∨ q_mask[succ_c]``; a failing judgment decodes its first
counterexample into its :class:`CheckResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.commands import Command
from repro.core.predicates import Predicate
from repro.core.proofs import discharge

__all__ = ["CheckResult", "MaskJudgments"]


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

    def relabel(self, kind: str, subject: str, message: str | None = None):
        """This verdict as the answer to the property ``subject`` of
        ``kind``; ``message``, if given, replaces its own."""
        if message is None:
            message = self.message
        return CheckResult(self.holds, kind, subject, message, self.witness)

    def explain(self) -> str:
        """One-line human-readable summary."""
        status = "HOLDS" if self.holds else "FAILS"
        tail = f" — {self.message}" if self.message else ""
        return f"[{status}] {self.kind}: {self.subject}{tail}"


class MaskJudgments:
    """The rule judgments of a domain that decides on predicate masks,
    each a :class:`CheckResult` worded by the domain (``where``,
    ``label``, ``annotate``) and counting one obligation."""

    __slots__ = ()

    def valid(self, p: Predicate, q: Predicate) -> CheckResult:
        subject = f"{p.describe()} => {q.describe()}"
        idx = np.flatnonzero(self.pred_mask(p) & ~self.pred_mask(q))
        if idx.size == 0:
            return CheckResult(
                True,
                "validity",
                subject,
                message=f"valid on all {self.size} {self.where}states ({self.label})",
                witness=self.annotate({}, reachable=True),
            )
        state = self.state_at_local(int(idx[0]))
        return CheckResult(
            False,
            "validity",
            subject,
            message=f"violated at {self.where}{state!r} (+{idx.size - 1} more)",
            witness=self.annotate({"state": state, "violations": int(idx.size)}),
        )

    def init(self, p: Predicate) -> CheckResult:
        subject = f"init {p.describe()}"
        init = self.init_local
        bad = init[~self.pred_mask(p)[init]]
        if bad.size == 0:
            return CheckResult(
                True,
                "init",
                subject,
                message=f"holds on all {init.size} initial states ({self.label})",
                witness=self.annotate({}),
            )
        state = self.state_at_local(int(bad[0]))
        return CheckResult(
            False,
            "init",
            subject,
            message=f"initial state {state!r} violates p",
            witness=self.annotate({"state": state, "violations": int(bad.size)}),
        )

    def equivalent(self, a: Predicate, b: Predicate) -> CheckResult:
        differ = np.flatnonzero(self.pred_mask(a) != self.pred_mask(b))
        if differ.size == 0:  # the subject is read only on failure
            return CheckResult(True, "equivalence", "")
        state = self.state_at_local(int(differ[0]))
        return CheckResult(
            False,
            "equivalence",
            f"{a.describe()} == {b.describe()}",
            message=f"they differ at {self.where}{state!r}",
        )

    def next(self, p: Predicate, q: Predicate) -> CheckResult:
        subject = f"{p.describe()} next {q.describe()}"
        pm = self.pred_mask(p)
        qm = self.pred_mask(q)
        for cmd in self.program.commands:
            succ = self.succ_local(cmd)
            idx = np.flatnonzero(pm & ~qm[succ])
            if idx.size:
                k = int(idx[0])
                state = self.state_at_local(k)
                successor = self.state_at_local(int(succ[k]))
                return CheckResult(
                    False,
                    "next",
                    subject,
                    message=(
                        f"command {cmd.name} steps {self.where}{state!r} to "
                        f"{successor!r}, which violates q"
                    ),
                    witness=self.annotate(
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
            message=f"holds from all {self.size} {self.where}states ({self.label})",
            witness=self.annotate({}, reachable=True),
        )

    def transient(self, p: Predicate) -> CheckResult:
        subject = f"transient {p.describe()}"
        pm = self.pred_mask(p)
        fair = self.program.fair_commands
        if not fair:
            # With D empty nothing is forced to execute, so only the
            # unsatisfiable predicate is transient.
            if not pm.any():
                return CheckResult(
                    True,
                    "transient",
                    subject,
                    message=(
                        f"p is unsatisfiable on every {self.where}state "
                        f"(vacuously transient, {self.label})"
                    ),
                    witness=self.annotate({}),
                )
            return CheckResult(
                False,
                "transient",
                subject,
                message="the program has no fair commands (D = ∅)",
                witness=self.annotate({}),
            )
        failures: dict[str, Any] = {}
        for cmd in fair:
            idx = np.flatnonzero(pm & pm[self.succ_local(cmd)])
            if idx.size == 0:
                return CheckResult(
                    True,
                    "transient",
                    subject,
                    message=(
                        f"command {cmd.name} falsifies p from every "
                        f"{self.where}p-state ({self.label})"
                    ),
                    witness=self.annotate({"command": cmd.name}),
                )
            failures[cmd.name] = self.state_at_local(int(idx[0]))
        return CheckResult(
            False,
            "transient",
            subject,
            message=(
                f"no single fair command falsifies p from every {self.where}p-state; "
                "per-command stuck states recorded in the witness"
            ),
            witness=self.annotate({"stuck_states": failures}),
        )

    def transient_strong(self, p: Predicate) -> CheckResult:
        """The criterion of
        :func:`repro.semantics.strong_fairness.check_transient_strong`."""
        from repro.semantics.leadsto import _fair_flags

        subject = f"transient[strong] {p.describe()}"
        pm = self.pred_mask(p)
        if not pm.any():
            return CheckResult(
                True,
                "transient-strong",
                subject,
                message=(
                    f"p is unsatisfiable on every {self.where}state "
                    f"(vacuously transient, {self.label})"
                ),
                witness=self.annotate({}),
            )
        fair_cmds = self.program.fair_commands
        cond = self.graph().condensation(pm)
        # Enabledness rows stream lazily, as in the leads-to analysis.
        flags = _fair_flags(
            cond,
            [self.succ_local(cmd) for cmd in fair_cmds],
            enabled=[
                (lambda ids, c=cmd: self.enabled_at(c, ids)) for cmd in fair_cmds
            ],
        )
        hit = np.flatnonzero(flags)
        if hit.size == 0:
            return CheckResult(
                True,
                "transient-strong",
                subject,
                message=(
                    f"every SCC of the {self.where}p-subgraph ({cond.count} "
                    f"component(s)) has an enabled exiting fair command "
                    f"({self.label})"
                ),
                witness=self.annotate({"components": cond.count}),
            )
        state = self.state_at_local(int(cond.members_of(hit[0])[0]))
        return CheckResult(
            False,
            "transient-strong",
            subject,
            message=(
                "a strongly-fair execution can stay inside p forever "
                f"(e.g. in the component of {state!r})"
            ),
            witness=self.annotate({"state": state, "fair_components": int(hit.size)}),
        )

    def valid_wp(self, pre: Predicate, cmd: Command, post: Predicate) -> CheckResult:
        return self.valid(pre, cmd.wp(post))

    def ensures(self, node, result, path: str):
        """Check ``node`` (an :class:`~repro.core.rules.Ensures`) through
        its derivation from the primitive rules: the macro node itself
        only asserts that the expansion concludes ``p ↝ q`` (true by
        construction), and the walk goes on into the expansion."""
        exp = node.expand()
        discharge(
            result,
            path,
            self.equivalent(exp.rhs(), node.q),
            lambda: "expansion right-hand side is not equivalent to q",
        )
        return (exp,)
