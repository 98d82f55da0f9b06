"""E8 — composition and the existential/universal theorems.

Times n-ary composition (with the paper's side-condition checks) and the
per-instance classification checks that back the randomized theorem tests.
"""

import pytest

from repro.core.classify import check_existential_on, check_universal_on
from repro.core.composition import compose_all
from repro.core.predicates import ExprPredicate
from repro.core.properties import Init, Stable, Transient
from repro.systems.counter import build_counter_component, build_counter_system


@pytest.mark.parametrize("n", [2, 4, 6, 8, 100], ids=lambda n: f"n{n}")
def test_E8_compose_all(benchmark, n, table_printer):
    """``compose_all`` builds the union in one pass, so its cost is linear
    in the components.  At 100 components the encoded space (about
    3^100 states) has no initial-state mask to probe, so that row skips
    the semantic init check and times the union alone."""
    components = [build_counter_component(i, n, 2) for i in range(n)]
    check_init = n <= 8

    system = benchmark(
        lambda: compose_all(components, name="S", check_init=check_init)
    )
    assert len(system.commands) == n + 1  # n actions + skip

    table_printer(
        f"E8: compose_all of {n} components",
        ["components", "system vars", "system |C|", "states"],
        [[n, len(system.variables), len(system.commands), system.space.size]],
    )


@pytest.mark.parametrize("n", [4, 8], ids=lambda n: f"n{n}")
def test_E8_compatibility_checks(benchmark, n):
    """Pairwise ``F ∥ G`` checks (locality + init consistency)."""
    from repro.core.composition import compatibility_report

    components = [build_counter_component(i, n, 2) for i in range(n)]

    def all_pairs():
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                ok &= compatibility_report(components[i], components[j]).ok
        return ok

    assert benchmark(all_pairs)


def test_E8_classification_instances(benchmark, table_printer):
    """One full round of the classification checks on the toy pair.

    Predicates are stated over the shared counter only — a property must be
    *stateable* in each component to appear in the theorems (the paper's
    locality discipline).
    """
    cs = build_counter_system(2, 2)
    f, g = cs.components
    stable_p = Stable(ExprPredicate(cs.C.ref() >= 1))
    init_p = Init(ExprPredicate(cs.C.ref() == 0))
    trans_p = Transient(ExprPredicate(cs.C.ref() == 0))

    def run():
        outs = [
            check_universal_on(stable_p, f, g),
            check_existential_on(init_p, f, g),
            check_existential_on(trans_p, f, g),
        ]
        return all(o.consistent for o in outs)

    assert benchmark(run)

    table_printer(
        "E8: classification instances (toy pair)",
        ["property type", "paper classification", "instance consistent"],
        [["stable", "universal", "yes"],
         ["init", "existential", "yes"],
         ["transient", "existential", "yes"]],
    )
