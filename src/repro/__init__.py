"""repro — compositional program verification with existential and
universal properties.

A complete, executable reproduction of *Charpentier & Chandy, "Examples of
Program Composition Illustrating the Use of Universal Properties"* (IPPS
1999 / Caltech CS-TR): the UNITY-derived programming model, program
composition with locality side conditions, the ``init / transient / next /
stable / invariant / leads-to / guarantees`` property language with its
existential/universal classification, a checkable proof kernel for the
paper's inference rules, a weak-fairness model checker with proof
synthesis, and both of the paper's case studies (the shared counter of §3
and the edge-reversal priority mechanism of §4) mechanized end to end.

Quickstart::

    from repro import systems
    cs = systems.build_counter_system(n=3, cap=3)
    assert cs.invariant_property().holds_in(cs.system)   # paper's (1)

    from repro.systems.counter_proof import build_invariant_proof
    proof = build_invariant_proof(cs)                    # the §3.3 proof
    assert proof.check(cs.system).ok

See ``examples/`` for runnable walkthroughs and ``DESIGN.md`` /
``EXPERIMENTS.md`` for the reproduction inventory.
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "_version": ("__version__",),
        # the unified verification facade
        "api": ("verify", "Verdict", "Witness"),
        # re-exported core API
        "core": (
            "Var", "Locality", "BoolDomain", "IntRange", "EnumDomain",
            "Expr", "Predicate", "ExprPredicate", "FnPredicate", "MaskPredicate",
            "State", "StateSpace", "Program", "GuardedCommand", "AltCommand", "Skip",
            "compose", "compose_all", "can_compose",
            "Init", "Transient", "Next", "Stable", "Invariant", "LeadsTo",
            "Guarantees", "PropertyFamily",
        ),
    },
    subpackages=("core", "semantics", "graph", "systems", "dsl", "util"),
)
