"""The §3 toy example: components sharing a global counter.

Each component ``i`` keeps a local counter ``c_i`` of the actions ``a`` it
has performed and increments the shared counter ``C`` along with it.  The
system property to establish compositionally is the paper's (1)::

    invariant  C = Σ_i c_i

The module builds the *repaired* component specification of §3.2 —

- ``init (c_i = 0 ∧ C = 0)``                                        (2)
- ``⟨∀k : stable (C = c_i + k)⟩``                                   (3)
- locality: ``⟨∀v ∉ {c_i, C}, k : stable (v = k)⟩``                 (4)

— and also the **naive** specification (``init C = c_i``,
``stable C = c_i``) whose two failure modes §3.2 diagnoses; tests
demonstrate both failures exactly as the paper describes.

Substitution note (recorded in DESIGN.md): the paper's counters are
unbounded; ours saturate at a cap, with command guards keeping every
transition inside the finite domain.  All paper properties are
guard-respecting ``next``-facts, so they are unaffected away from the cap,
and the cap behaviour itself is pinned by tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.composition import compose_all, lifted
from repro.core.domains import IntRange
from repro.core.expressions import Expr, esum, land
from repro.core.predicates import ExprPredicate
from repro.core.program import Program
from repro.core.commands import GuardedCommand
from repro.core.properties import (
    Init,
    Invariant,
    PropertyFamily,
    Stable,
    forall_values,
)
from repro.core.variables import Locality, Var

__all__ = [
    "CounterSystem",
    "build_counter_component",
    "build_counter_system",
    "global_counter_var",
    "local_counter_var",
    "naive_component_spec",
]


def global_counter_var(n: int, cap: int) -> Var:
    """The shared counter ``C`` for an ``n``-component system; its domain
    ``[0, n·cap]`` accommodates every component saturating."""
    return Var.shared("C", IntRange(0, n * cap))


def local_counter_var(i: int, cap: int) -> Var:
    """The local counter ``c[i]`` with domain ``[0, cap]``."""
    return Var.indexed("c", i, IntRange(0, cap), locality=Locality.LOCAL)


def build_counter_component(i: int, n: int, cap: int) -> Program:
    """Component ``i`` of the §3 system.

    One fair action ``a[i]``: when neither counter is saturated, increment
    ``c_i`` and ``C`` together.  The ``initially`` is the paper's repaired
    local predicate (2): ``c_i = 0 ∧ C = 0``.
    """
    c_i = local_counter_var(i, cap)
    C = global_counter_var(n, cap)
    action = GuardedCommand(
        f"a[{i}]",
        land(c_i.ref() < cap, C.ref() < n * cap),
        [(c_i, c_i.ref() + 1), (C, C.ref() + 1)],
    )
    return Program(
        f"Component[{i}]",
        [c_i, C],
        land(c_i.ref() == 0, C.ref() == 0),
        [action],
        fair=[f"a[{i}]"],
    )


@dataclass
class CounterSystem:
    """The composed §3 system plus its specification objects."""

    n: int
    cap: int
    components: list[Program]
    system: Program

    # -- variables ------------------------------------------------------------

    @property
    def C(self) -> Var:
        """The shared counter."""
        return self.system.var_named("C")

    def c(self, i: int) -> Var:
        """Local counter of component ``i``."""
        return self.system.var_named(f"c[{i}]")

    def sum_expr(self) -> Expr:
        """``Σ_i c_i`` as an expression."""
        return esum([self.c(i).ref() for i in range(self.n)])

    # -- the paper's properties --------------------------------------------------

    def invariant_property(self) -> Invariant:
        """(1): ``invariant C = Σ_i c_i`` — the system correctness goal."""
        return Invariant(ExprPredicate(self.C.ref() == self.sum_expr()))

    def component_init_property(self, i: int) -> Init:
        """(2): ``init (c_i = 0 ∧ C = 0)`` — stated over component ``i``."""
        return Init(ExprPredicate(land(self.c(i).ref() == 0, self.C.ref() == 0)))

    def component_stable_family(self, i: int) -> PropertyFamily:
        """(3): ``⟨∀k : stable (C = c_i + k)⟩``.

        ``k`` ranges over every value ``C - c_i`` can take, which is finite
        here (the paper's ``k`` is universally quantified over ℤ; all other
        instances are vacuous).
        """
        c_i = self.c(i)
        return forall_values(
            range(-self.cap, self.n * self.cap + 1),
            lambda k: Stable(ExprPredicate(self.C.ref() == c_i.ref() + k)),
            description=f"forall k : stable (C = c[{i}] + k)",
        )

    def locality_family(self, i: int) -> PropertyFamily:
        """(4): for every variable ``v ∉ {c_i, C}`` and value ``k``,
        ``stable (v = k)`` — derived from the ``local`` declaration.

        Stated (and checked) over the component *lifted* to the system's
        variables, since the foreign ``c_j`` do not exist in the
        component's own space — exactly the gap §3.2 identifies.
        """
        members = []
        for j in range(self.n):
            if j == i:
                continue
            c_j = self.c(j)
            members.extend(
                Stable(ExprPredicate(c_j.ref() == k))
                for k in range(0, self.cap + 1)
            )
        return PropertyFamily(
            f"forall v not in {{c[{i}], C}}, k : stable (v = k)", members
        )

    def lifted_component(self, i: int) -> Program:
        """Component ``i`` viewed over the system's variables."""
        return lifted(self.components[i], self.system)


def build_counter_system(n: int, cap: int = 3) -> CounterSystem:
    """Build the §3 system with ``n ≥ 1`` components saturating at ``cap``."""
    if n < 1:
        raise ValueError(f"need at least one component, got n={n}")
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    components = [build_counter_component(i, n, cap) for i in range(n)]
    system = compose_all(components, name=f"CounterSystem[{n}]")
    return CounterSystem(n=n, cap=cap, components=components, system=system)


def naive_component_spec(i: int, n: int, cap: int) -> tuple[Init, Stable]:
    """The naive specification of §3.2: ``init C = c_i`` and
    ``stable C = c_i``.

    The paper's two diagnosed problems, both demonstrated by tests:

    1. the conjunction of the naive ``init``s gives ``⟨∀i : C = c_i⟩``,
       from which ``C = Σ c_i`` does **not** follow for ``n > 1``;
    2. component ``j`` modifies ``C`` without touching ``c_i``, so
       ``stable (C = c_i)`` fails in the composed system.
    """
    c_i = local_counter_var(i, cap)
    C = global_counter_var(n, cap)
    return (
        Init(ExprPredicate(C.ref() == c_i.ref())),
        Stable(ExprPredicate(C.ref() == c_i.ref())),
    )
