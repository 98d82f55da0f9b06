"""Dining philosophers on top of the §4 priority mechanism.

The paper motivates the priority mechanism with perpetually conflicting
components; the classic instantiation is dining philosophers: conflicts are
fork-sharing neighbours, and a philosopher may eat only while holding
priority over all neighbours.  This module *uses* the priority substrate as
a downstream application would:

- each node gains a local phase ``think | eat``;
- ``sit[i]``: a thinking philosopher with priority starts eating;
- ``yield[i]``: an eating philosopher stops, reverses all its edges
  (the §4 move) and returns to thinking.

Verified properties (tests + example):

- **mutual exclusion** — ``invariant ⟨∀(i,j) ∈ edges : ¬(eat_i ∧ eat_j)⟩``
  via the auxiliary inductive invariant ``eat_i ⇒ Priority.i``;
- **liveness** — ``(Acyclicity ∧ all thinking) ↝ eat_i`` for every ``i``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.commands import GuardedCommand
from repro.core.composition import compose_all
from repro.core.domains import EnumDomain
from repro.core.expressions import land, lnot
from repro.core.predicates import ExprPredicate, Predicate
from repro.core.program import Program
from repro.core.properties import Invariant, LeadsTo
from repro.core.variables import Locality, Var
from repro.errors import GraphError
from repro.graph.neighborhood import NeighborhoodGraph
from repro.systems.priority import PrioritySystem, edge_var

__all__ = [
    "PhilosopherSystem",
    "build_philosopher_system",
    "build_philosopher_ring",
    "build_philosopher_grid",
    "PHASES",
]

#: The philosopher phase domain.
PHASES = EnumDomain("phase", ("think", "eat"))


def phase_var(i: int) -> Var:
    """Local phase variable of philosopher ``i``."""
    return Var.indexed("ph", i, PHASES, locality=Locality.LOCAL)


@dataclass
class PhilosopherSystem:
    """The composed philosopher system plus its verification interface."""

    graph: NeighborhoodGraph
    priority: PrioritySystem
    components: list[Program]
    system: Program

    def phase(self, i: int) -> Var:
        """Phase variable of philosopher ``i``."""
        return self.system.var_named(f"ph[{i}]")

    def eating(self, i: int) -> Predicate:
        """``ph_i = eat``."""
        return ExprPredicate(self.phase(i).ref() == "eat")

    def thinking(self, i: int) -> Predicate:
        """``ph_i = think``."""
        return ExprPredicate(self.phase(i).ref() == "think")

    def priority_predicate(self, i: int) -> Predicate:
        """``Priority.i`` over the extended space (same expression)."""
        return ExprPredicate(self.priority.priority_expr(i))

    def acyclicity_predicate(self) -> Predicate:
        """Acyclicity of the orientation part of the state.

        The priority system's mask is indexed by its own (edge-only)
        space, so the predicate is rebuilt over the extended space — as a
        batch predicate whose ``mask_at`` runs the vectorized Kahn peel
        (:func:`repro.graph.acyclicity.acyclic_rows`) on the decoded edge
        columns of the queried index set, which is what makes grid-scale
        liveness checks feasible on the sparse tier (the old per-state
        callable walked a Python ``Orientation`` per reachable state).
        """
        return _AcyclicityPredicate(self)

    def _orientation_of(self, state):
        from repro.graph.orientation import Orientation
        from repro.util.bitset import bit

        bits = 0
        for k, (a, b) in enumerate(self.graph.edges):
            if state[self.system.var_named(f"e[{a},{b}]")]:
                bits |= bit(k)
        return Orientation(self.graph, bits)

    # -- properties -------------------------------------------------------------

    def eat_implies_priority(self) -> Invariant:
        """Auxiliary inductive invariant: ``⟨∀i : eat_i ⇒ Priority.i⟩``."""
        parts = []
        for i in self.graph.nodes():
            parts.append(
                lnot(self.phase(i).ref() == "eat") | self.priority.priority_expr(i)
            )
        return Invariant(ExprPredicate(land(*parts)))

    def mutual_exclusion(self) -> Invariant:
        """``invariant ⟨∀(i,j) ∈ edges : ¬(eat_i ∧ eat_j)⟩``.

        Follows from :meth:`eat_implies_priority` plus the §4 safety (9);
        checked directly as well.
        """
        parts = []
        for (i, j) in self.graph.edges:
            parts.append(lnot(land(
                self.phase(i).ref() == "eat", self.phase(j).ref() == "eat"
            )))
        body = ExprPredicate(land(*parts))
        # Mutual exclusion alone is not inductive (eat without priority
        # could step into a neighbour's meal); conjoin the auxiliary
        # invariant to make it so — the standard strengthening move.
        aux = self.eat_implies_priority()
        return Invariant(body & aux.p)

    def liveness(self, i: int) -> LeadsTo:
        """``(Acyclicity ∧ ⟨∀j : ph_j = think⟩ ) ↝ eat_i``."""
        all_think = land(*(
            self.phase(j).ref() == "think" for j in self.graph.nodes()
        ))
        start = self.acyclicity_predicate() & ExprPredicate(all_think)
        return LeadsTo(start, self.eating(i))


class _AcyclicityPredicate(Predicate):
    """Acyclicity of the fork orientation, batched over state indices.

    ``holds`` keeps the scalar graph-walk semantics; the mask kernel
    reads only the edge columns of the queried states and runs the
    vectorized Kahn peel, so neither ``mask_at`` (the sparse tier) nor
    ``mask`` pays a per-state Python loop.
    """

    def __init__(self, system: "PhilosopherSystem") -> None:
        self._system = system

    def holds(self, state) -> bool:
        from repro.graph.acyclicity import is_acyclic

        return is_acyclic(self._system._orientation_of(state))

    def _mask_of(self, env) -> np.ndarray:
        from repro.graph.acyclicity import acyclic_rows

        graph = self._system.graph
        cols = np.empty((env.rows, graph.m), dtype=bool)
        for k, (a, b) in enumerate(graph.edges):
            cols[:, k] = env.indices(env.space.var_named(f"e[{a},{b}]"))
        return acyclic_rows(graph, cols)

    def describe(self) -> str:
        return "Acyclicity"


def build_philosopher_component(
    graph: NeighborhoodGraph,
    i: int,
    priority: PrioritySystem,
    *,
    pin_initial_orientation: bool = False,
) -> Program:
    """Philosopher ``i``: phase plus the incident edge variables.

    With ``pin_initial_orientation`` the component's ``initially`` also
    pins every incident fork to the canonical (id-ordered, acyclic)
    orientation — shrinking the composed initial set to a single state,
    which is what keeps grid-scale reachable sets explorable.
    """
    ph = phase_var(i)
    incident = [edge_var(*graph.edges[k]) for k in graph.incident_edges(i)]
    pr = priority.priority_expr(i)

    sit = GuardedCommand(
        f"sit[{i}]",
        land(ph.ref() == "think", pr),
        [(ph, "eat")],
    )
    yield_assignments = [(ph, "think")]
    for j in graph.neighbors(i):
        var = edge_var(i, j)
        yield_assignments.append((var, j < i))
    yield_cmd = GuardedCommand(
        f"yield[{i}]",
        ph.ref() == "eat",
        yield_assignments,
    )
    init_conjuncts = [ph.ref() == "think"]
    if pin_initial_orientation:
        # Canonical orientation: every edge variable true (min → max).
        init_conjuncts.extend(v.ref() for v in incident)
    return Program(
        f"Philosopher[{i}]",
        [ph, *incident],
        ExprPredicate(land(*init_conjuncts)),
        [sit, yield_cmd],
        fair=[f"sit[{i}]", f"yield[{i}]"],
    )


def build_philosopher_system(
    graph: NeighborhoodGraph,
    *,
    check_init: bool = True,
    pin_initial_orientation: bool = False,
) -> PhilosopherSystem:
    """Build philosophers over ``graph`` (state space ``2^m · 2^n``).

    ``check_init=False`` skips the semantic initial-state probe of
    :func:`~repro.core.composition.compose_all` — required for graphs
    whose composed space exceeds the sparse threshold, where the probe
    would materialize a full-space mask (satisfiability is obvious here:
    the component ``initially`` predicates constrain disjoint phase
    variables).

    ``pin_initial_orientation=True`` starts every fork in the canonical
    acyclic orientation (single initial state) and builds the priority
    substrate with ``init="canonical"``, so no full-space table is touched
    even when the orientation space alone exceeds the dense capacity —
    the construction mode of :func:`build_philosopher_grid`.
    """
    for i in graph.nodes():
        if graph.degree(i) == 0:
            raise GraphError(f"philosopher {i} has no neighbours")
    priority = PrioritySystem(
        graph, init="canonical" if pin_initial_orientation else "acyclic"
    )
    components = [
        build_philosopher_component(
            graph, i, priority,
            pin_initial_orientation=pin_initial_orientation,
        )
        for i in graph.nodes()
    ]
    system = compose_all(
        components, name=f"Philosophers[n={graph.n}]", check_init=check_init
    )
    return PhilosopherSystem(
        graph=graph, priority=priority, components=components, system=system
    )


def build_philosopher_ring(n: int) -> PhilosopherSystem:
    """Philosophers around a ring of ``n`` — the scaling scenario.

    The composed space is exponential in ``n`` (one phase and one fork
    edge per philosopher), so ``n ≥ 10`` exceeds the sparse threshold and
    every liveness check runs through :mod:`repro.semantics.sparse`; the
    reachable set (acyclic-orientation dynamics × phases) stays a sliver
    of the encoded product.  The initial-state probe is always skipped:
    it would materialize a full-space mask at scale, and satisfiability
    is structural here (the component ``initially`` predicates constrain
    disjoint phase variables; tests pin it).
    """
    from repro.graph.generators import ring_graph

    return build_philosopher_system(ring_graph(n), check_init=False)


def build_philosopher_grid(rows: int, cols: int) -> PhilosopherSystem:
    """Philosophers on a ``rows × cols`` 4-neighbour grid — the
    beyond-the-old-cap scenario.

    The composed space is ``2^(n+m)`` for ``n = rows·cols`` nodes and
    ``m = 2·rows·cols − rows − cols`` fork edges, so even small grids
    blow through every dense capacity (5×5 is ``2^65``).  Forks start in
    the canonical acyclic orientation (a **single** initial state, pinned
    through ``pin_initial_orientation``): reachable orientations stay the
    edge-reversal dynamics' orbit instead of all ``2^m`` orientations,
    which is what keeps the reachable set explorable while the encoded
    space grows without bound.  The priority substrate is built with
    ``init="canonical"``, so nothing of length ``2^m`` is ever allocated.
    """
    from repro.graph.generators import grid_graph

    return build_philosopher_system(
        grid_graph(rows, cols), check_init=False, pin_initial_orientation=True
    )
