"""The rule judgments of the mask domains.

A proof rule states its obligations once, as calls of its domain's
judgments (:mod:`repro.semantics.domain`).  :class:`MaskJudgments` is
their one implementation for the two domains that decide on predicate
masks — :class:`~repro.semantics.domain.FullSpace` and
:class:`~repro.semantics.sparse.explorer.ReachableSubspace` — and the
footprint domain
(:class:`~repro.semantics.compositional.FootprintSpace`) provides the
same methods.  The class lives apart from :mod:`repro.semantics.domain`
because the sparse explorer, which that module's routing imports,
derives from it.
"""

from __future__ import annotations

import numpy as np

from repro.core.commands import Command
from repro.core.predicates import Predicate
from repro.core.proofs import discharge

__all__ = ["MaskJudgments"]


class MaskJudgments:
    """The rule judgments of a domain that decides on predicate masks.

    Each is one call of the domain-taking function of
    :mod:`repro.semantics.checker` (or
    :mod:`repro.semantics.strong_fairness`) on the domain itself;
    equivalence is mask equality.  Every verdict counts one obligation.
    """

    __slots__ = ()

    def valid(self, p: Predicate, q: Predicate):
        from repro.semantics.checker import validity_on

        return validity_on(self, p, q)

    def equivalent(self, a: Predicate, b: Predicate):
        from repro.semantics.checker import CheckResult

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

    def next(self, p: Predicate, q: Predicate):
        from repro.semantics.checker import next_on

        return next_on(self, p, q)

    def transient(self, p: Predicate):
        from repro.semantics.checker import transient_on

        return transient_on(self, p)

    def transient_strong(self, p: Predicate):
        from repro.semantics.strong_fairness import transient_strong_on

        return transient_strong_on(self, p)

    def valid_wp(self, pre: Predicate, cmd: Command, post: Predicate):
        from repro.semantics.checker import validity_on

        return validity_on(self, pre, cmd.wp(post))

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
