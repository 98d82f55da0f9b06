"""Core theory objects: the §2 programming model and property language.

This package implements, as executable Python objects, every concept the
paper's §2 introduces:

- finite typed **domains** and **variables** with locality declarations
  (:mod:`repro.core.domains`, :mod:`repro.core.variables`),
- an **expression / predicate** language with symbolic substitution (for
  ``wp``) and vectorized evaluation (:mod:`repro.core.expressions`,
  :mod:`repro.core.predicates`),
- **states** and mixed-radix encoded **state spaces**
  (:mod:`repro.core.state`),
- UNITY-style **commands** — total, deterministic guarded multi-assignments,
  plus ``skip`` (:mod:`repro.core.commands`),
- **programs** ``(vars, initially, C, D)`` with ``skip ∈ C`` and weakly-fair
  ``D ⊆ C`` (:mod:`repro.core.program`),
- **composition** ``F ∘ G`` with the paper's side conditions
  (:mod:`repro.core.composition`),
- the **property language** ``init / transient / next / stable / invariant /
  leads-to / guarantees`` (:mod:`repro.core.properties`) and the
  existential/universal classification (:mod:`repro.core.classify`),
- a checkable **proof kernel** for the paper's leads-to rules and for the
  universal-property construction steps (:mod:`repro.core.rules`,
  :mod:`repro.core.proofs`).
"""

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        # domains / variables
        "domains": ("FiniteDomain", "BoolDomain", "IntRange", "EnumDomain"),
        "variables": ("Var", "Locality"),
        # expressions
        "expressions": (
            "Expr", "Const", "IntConst", "BoolConst", "VarRef", "const", "var_ref",
            "esum", "land", "lor", "lnot", "implies", "iff", "ite",
            "minimum", "maximum",
        ),
        # predicates
        "predicates": (
            "Predicate", "ExprPredicate", "FnPredicate", "MaskPredicate",
            "TRUE", "FALSE", "forall_range", "exists_range",
        ),
        # states
        "state": ("State", "StateSpace"),
        # commands / programs / composition
        "commands": ("Assignment", "GuardedCommand", "AltCommand", "Skip", "skip"),
        "program": ("Program",),
        "composition": (
            "can_compose", "compatibility_report", "compose", "compose_all",
        ),
        # properties
        "properties": (
            "Property", "Init", "Transient", "Next", "Stable", "Invariant",
            "LeadsTo", "Guarantees", "PropertyFamily", "forall_values",
        ),
    },
)
