"""The property language of the paper (§2).

Properties are predicates on *programs*::

    init p          initially ⇒ p                                (existential)
    transient p     ⟨∃c : c ∈ D : p ⇒ wp.c.¬p⟩                   (existential)
    p next q        ⟨∀c : c ∈ C : p ⇒ wp.c.q⟩                    (universal)
    stable p        p next p                                     (universal)
    invariant p     (init p) ∧ (stable p)                        (universal)
    p ↝ q           least relation closed under the five rules   (neither)
    X guarantees Y  ∀G : F ∥ G : X(F∘G) ⇒ Y(F∘G)                 (existential)

Every property object can discharge itself **semantically** against a
concrete finite program via :meth:`Property.check` (delegating to
:mod:`repro.semantics.checker`), following the paper's inductive semantics:
``next``-family properties quantify over *all* states of the space, not just
reachable ones (the paper deliberately avoids the substitution axiom).

The five safety properties state their definition once, as
``check_on(d)`` over the rule judgments of any evaluation domain ``d``
(:mod:`repro.semantics.domain`): ``d.init(p)``, ``d.next(p, q)``,
``d.transient(p)``.

``leads-to`` is checked under weak fairness of ``D`` by the fair-SCC model
checker (:mod:`repro.semantics.leadsto`); the checker is proven equivalent
to the proof system on finite instances by the synthesis engine
(:mod:`repro.semantics.synthesis`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING, Any

from repro.core.expressions import Expr
from repro.core.predicates import ExprPredicate, Predicate
from repro.errors import PropertyError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.program import Program
    from repro.semantics.checker import CheckResult

__all__ = [
    "Property",
    "Init",
    "Transient",
    "Next",
    "Stable",
    "Invariant",
    "LeadsTo",
    "Guarantees",
    "PropertyFamily",
    "forall_values",
]


def _as_pred(p: Predicate | Expr | bool) -> Predicate:
    if isinstance(p, Predicate):
        return p
    if isinstance(p, Expr):
        return ExprPredicate(p)
    if isinstance(p, bool):
        from repro.core.predicates import FALSE, TRUE

        return TRUE if p else FALSE
    raise PropertyError(f"cannot treat {p!r} as a predicate")


class Property:
    """Abstract base class of program properties."""

    #: True iff the property *type* is existential: it holds of any system
    #: in which at least one component has it.
    is_existential: bool = False
    #: True iff the property *type* is universal: it holds of any system in
    #: which all components have it.
    is_universal: bool = False

    def check(self, program: "Program") -> "CheckResult":
        """Semantically discharge the property against ``program``."""
        raise NotImplementedError

    def holds_in(self, program: "Program") -> bool:
        """Boolean form of :meth:`check`."""
        return self.check(program).holds

    def describe(self) -> str:
        """UNITY-style rendering."""
        raise NotImplementedError

    @property
    def classification(self) -> str:
        """``"existential"``, ``"universal"``, ``"both"`` or ``"neither"``."""
        if self.is_existential and self.is_universal:
            return "both"
        if self.is_existential:
            return "existential"
        if self.is_universal:
            return "universal"
        return "neither"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"

    def __str__(self) -> str:
        return self.describe()


class Init(Property):
    """``init p`` — every initial state satisfies ``p``.

    Existential (and in fact also universal: the composed ``initially`` is
    the conjunction of the components', so it entails each of them).
    """

    is_existential = True
    is_universal = True

    def __init__(self, p: Predicate | Expr | bool) -> None:
        self.p = _as_pred(p)

    def check(self, program: "Program") -> "CheckResult":
        from repro.semantics.checker import check_init

        return check_init(program, self.p)

    def check_on(self, d):
        """``init p`` decided on the domain ``d``."""
        return d.init(self.p)

    def describe(self) -> str:
        return f"init {self.p.describe()}"


class Transient(Property):
    """``transient p`` — some single fair command falsifies ``p`` from every
    ``p``-state: ``⟨∃c : c ∈ D : p ⇒ wp.c.¬p⟩``.  Existential."""

    is_existential = True
    is_universal = False

    def __init__(self, p: Predicate | Expr | bool) -> None:
        self.p = _as_pred(p)

    def check(self, program: "Program") -> "CheckResult":
        from repro.semantics.checker import check_transient

        return check_transient(program, self.p)

    def check_on(self, d):
        """``transient p`` decided on the domain ``d``."""
        return d.transient(self.p)

    def describe(self) -> str:
        return f"transient {self.p.describe()}"


class Next(Property):
    """``p next q`` — every command steps ``p``-states to ``q``-states:
    ``⟨∀c : c ∈ C : p ⇒ wp.c.q⟩``.  Universal."""

    is_existential = False
    is_universal = True

    def __init__(self, p: Predicate | Expr | bool, q: Predicate | Expr | bool) -> None:
        self.p = _as_pred(p)
        self.q = _as_pred(q)

    def check(self, program: "Program") -> "CheckResult":
        from repro.semantics.checker import check_next

        return check_next(program, self.p, self.q)

    def check_on(self, d):
        """``p next q`` decided on the domain ``d``."""
        return d.next(self.p, self.q)

    def describe(self) -> str:
        return f"{self.p.describe()} next {self.q.describe()}"


class Stable(Property):
    """``stable p ≡ p next p``.  Universal."""

    is_existential = False
    is_universal = True

    def __init__(self, p: Predicate | Expr | bool) -> None:
        self.p = _as_pred(p)

    def check(self, program: "Program") -> "CheckResult":
        from repro.semantics.checker import check_stable

        return check_stable(program, self.p)

    def check_on(self, d):
        """``stable p ≡ p next p`` decided on the domain ``d``."""
        return d.next(self.p, self.p).relabel("stable", self.describe())

    def describe(self) -> str:
        return f"stable {self.p.describe()}"


class Invariant(Property):
    """``invariant p ≡ (init p) ∧ (stable p)`` — the paper's *inductive*
    invariant, over the full state space.  Universal.

    For the weaker "holds on all reachable states" notion use
    :func:`repro.semantics.checker.check_reachable_invariant` explicitly.
    """

    is_existential = False
    is_universal = True

    def __init__(self, p: Predicate | Expr | bool) -> None:
        self.p = _as_pred(p)

    def check(self, program: "Program") -> "CheckResult":
        from repro.semantics.checker import check_invariant

        return check_invariant(program, self.p)

    def check_on(self, d):
        """``invariant p ≡ (init p) ∧ (stable p)``, both parts decided on
        the domain ``d``."""
        subject = self.describe()
        init = d.init(self.p)
        if not init:
            return init.relabel(
                "invariant", subject, f"init part fails: {init.message}"
            )
        stable = Stable(self.p).check_on(d)
        if not stable:
            return stable.relabel(
                "invariant", subject, f"stable part fails: {stable.message}"
            )
        # Both parts ran on one domain; the stable part's witness names it.
        return stable.relabel("invariant", subject, "")

    def describe(self) -> str:
        return f"invariant {self.p.describe()}"


class LeadsTo(Property):
    """``p ↝ q`` — under weak fairness of ``D``, every execution from a
    ``p``-state eventually reaches a ``q``-state.

    Neither existential nor universal in general (the paper notes this);
    existential liveness is recovered through ``guarantees``.
    """

    is_existential = False
    is_universal = False

    def __init__(self, p: Predicate | Expr | bool, q: Predicate | Expr | bool) -> None:
        self.p = _as_pred(p)
        self.q = _as_pred(q)

    def check(self, program: "Program") -> "CheckResult":
        from repro.semantics.leadsto import check_leadsto

        return check_leadsto(program, self.p, self.q)

    def describe(self) -> str:
        return f"{self.p.describe()} ~> {self.q.describe()}"


class Guarantees(Property):
    """``X guarantees Y`` — in every valid composition containing this
    component, if the system has ``X`` then it has ``Y``.  Existential.

    The defining quantification ranges over *all* compatible environment
    programs, which is not finitely checkable; :meth:`check_against`
    discharges it over an explicit universe of environments (used by the
    classification tests), and :meth:`check` requires such a universe.
    """

    is_existential = True
    is_universal = False

    def __init__(self, lhs: Property, rhs: Property) -> None:
        if not isinstance(lhs, Property) or not isinstance(rhs, Property):
            raise PropertyError("guarantees expects two program properties")
        self.lhs = lhs
        self.rhs = rhs

    def check_against(
        self, program: "Program", environments: Sequence["Program"]
    ) -> "CheckResult":
        """Check the guarantee over an explicit finite environment universe
        (always including the inert environment, i.e. ``program`` itself
        composed with nothing)."""
        from repro.core.composition import can_compose, compose
        from repro.semantics.checker import CheckResult

        tried = 0
        for env in (None, *environments):
            if env is None:
                system = program
                label = "(alone)"
            else:
                if not can_compose(program, env):
                    continue
                system = compose(program, env)
                label = env.name
            tried += 1
            if self.lhs.holds_in(system) and not self.rhs.holds_in(system):
                return CheckResult(
                    holds=False,
                    kind="guarantees",
                    subject=self.describe(),
                    message=(
                        f"environment {label}: X holds but Y fails in the "
                        "composed system"
                    ),
                )
        return CheckResult(
            holds=True,
            kind="guarantees",
            subject=self.describe(),
            message=f"checked against {tried} environment(s)",
        )

    def check(self, program: "Program") -> "CheckResult":
        raise PropertyError(
            "guarantees cannot be checked without an environment universe; "
            "use check_against(program, environments)"
        )

    def describe(self) -> str:
        return f"({self.lhs.describe()}) guarantees ({self.rhs.describe()})"


class PropertyFamily(Property):
    """A finite indexed family of properties, e.g. ``∀k : stable (C - c = k)``.

    The family holds iff every member holds; classification is the meet of
    the members' classifications.
    """

    def __init__(self, description: str, members: Iterable[Property]) -> None:
        self.members = tuple(members)
        if not self.members:
            raise PropertyError("a property family needs at least one member")
        self._description = description
        self.is_existential = all(m.is_existential for m in self.members)
        self.is_universal = all(m.is_universal for m in self.members)

    def check(self, program: "Program") -> "CheckResult":
        from repro.semantics.checker import CheckResult

        for member in self.members:
            result = member.check(program)
            if not result.holds:
                return result.relabel(
                    "family",
                    self._description,
                    f"member fails: {member.describe()} — {result.message}",
                )
        return CheckResult(
            holds=True,
            kind="family",
            subject=self._description,
            message=f"all {len(self.members)} members hold",
        )

    def describe(self) -> str:
        return self._description

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def forall_values(
    values: Iterable[Any],
    fn: Callable[[Any], Property],
    *,
    description: str | None = None,
) -> PropertyFamily:
    """Build the family ``{ fn(v) : v ∈ values }``.

    Mirrors the paper's universally quantified free variables (``k``, ``N``
    in (3); ``b`` in (5)); on finite domains the family is finite.
    """
    members = [fn(v) for v in values]
    if description is None:
        description = f"forall k in {{…}} : {members[0].describe() if members else '⊤'}"
    return PropertyFamily(description, members)
