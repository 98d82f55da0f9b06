"""Shared fixtures and hypothesis strategies for the test suite.

The program strategies generate *domain-safe* programs: every generated
assignment provably stays inside its variable's domain (wrap-around
increments, clamped constants), so vectorized table construction never
raises and the randomized theorem tests exercise semantics, not error
paths.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st

from repro.core.commands import GuardedCommand, Skip
from repro.core.domains import IntRange
from repro.core.expressions import (
    BoolConst,
    Expr,
    IntConst,
    ite,
    land,
    lnot,
    lor,
)
from repro.core.predicates import ExprPredicate, Predicate
from repro.core.program import Program
from repro.core.variables import Var

#: ``--hypothesis-profile ci`` (the CI ``fuzz`` job's DSL round-trip step):
#: a longer sweep, derandomized so a red job reproduces.  Tier-1 runs keep
#: hypothesis' default budget.
settings.register_profile("ci", max_examples=2000, derandomize=True, deadline=None)

# ---------------------------------------------------------------------------
# Deterministic micro-fixtures
# ---------------------------------------------------------------------------


@pytest.fixture()
def xy_vars() -> tuple[Var, Var]:
    """A small int/bool variable pair used across command tests."""
    return Var.shared("x", IntRange(0, 3)), Var.boolean("y")


@pytest.fixture()
def toggle_program() -> Program:
    """One bool, one fair toggle — the smallest program with liveness."""
    b = Var.boolean("b")
    toggle = GuardedCommand("toggle", True, [(b, lnot(b.ref()))])
    return Program("Toggle", [b], ExprPredicate(lnot(b.ref())), [toggle], fair=["toggle"])


@pytest.fixture()
def mod_counter_program() -> Program:
    """x := (x+1) mod 4 under fairness; init x = 0."""
    x = Var.shared("x", IntRange(0, 3))
    inc = GuardedCommand(
        "inc", True, [(x, ite(x.ref() < 3, x.ref() + 1, 0))]
    )
    return Program("Mod4", [x], ExprPredicate(x.ref() == 0), [inc], fair=["inc"])


@pytest.fixture()
def saturating_counter_program() -> Program:
    """x increments to 3 and stays (no wrap): leads-to x=3 via fairness."""
    x = Var.shared("x", IntRange(0, 3))
    inc = GuardedCommand("inc", x.ref() < 3, [(x, x.ref() + 1)])
    return Program("Sat", [x], ExprPredicate(x.ref() == 0), [inc], fair=["inc"])


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

#: Shared variable universe for random program pairs: small on purpose so
#: that state spaces stay tiny and the randomized theorem checks are fast.
SHARED_X = Var.shared("x", IntRange(0, 2))
SHARED_B = Var.boolean("b")
SHARED_VARS = (SHARED_X, SHARED_B)


def int_expr_strategy(var: Var) -> st.SearchStrategy[Expr]:
    """Domain-safe integer right-hand sides for ``var``."""
    dom = var.domain
    assert isinstance(dom, IntRange)
    consts = st.integers(dom.lo, dom.hi).map(IntConst)
    keep = st.just(var.ref())
    wrap_inc = st.just(ite(var.ref() < dom.hi, var.ref() + 1, IntConst(dom.lo)))
    wrap_dec = st.just(ite(var.ref() > dom.lo, var.ref() - 1, IntConst(dom.hi)))
    return st.one_of(consts, keep, wrap_inc, wrap_dec)


def bool_expr_strategy(var: Var) -> st.SearchStrategy[Expr]:
    """Boolean right-hand sides for ``var``."""
    return st.one_of(
        st.booleans().map(BoolConst),
        st.just(var.ref()),
        st.just(lnot(var.ref())),
    )


def guard_strategy() -> st.SearchStrategy[Expr]:
    """Small boolean guards over the shared universe."""
    x, b = SHARED_X, SHARED_B
    atoms = st.one_of(
        st.just(BoolConst(True)),
        st.just(b.ref()),
        st.just(lnot(b.ref())),
        st.integers(0, 2).map(lambda k: x.ref() == k),
        st.integers(0, 2).map(lambda k: x.ref() <= k),
        st.integers(0, 2).map(lambda k: x.ref() > k),
    )
    return st.one_of(
        atoms,
        st.tuples(atoms, atoms).map(lambda t: land(*t)),
        st.tuples(atoms, atoms).map(lambda t: lor(*t)),
    )


def predicate_strategy() -> st.SearchStrategy[Predicate]:
    """Random predicates over the shared universe."""
    return guard_strategy().map(ExprPredicate)


@st.composite
def command_strategy(draw, name: str) -> GuardedCommand:
    """One domain-safe guarded command over the shared universe."""
    guard = draw(guard_strategy())
    targets = draw(
        st.lists(st.sampled_from([0, 1]), min_size=1, max_size=2, unique=True)
    )
    assigns = []
    for t in targets:
        if t == 0:
            assigns.append((SHARED_X, draw(int_expr_strategy(SHARED_X))))
        else:
            assigns.append((SHARED_B, draw(bool_expr_strategy(SHARED_B))))
    return GuardedCommand(name, guard, assigns)


@st.composite
def program_strategy(draw, name: str = "F") -> Program:
    """A random program over the shared universe.

    1–3 guarded commands, a satisfiable random ``initially``, and a random
    (possibly empty) fair subset.
    """
    ncmds = draw(st.integers(1, 3))
    commands = [
        draw(command_strategy(f"{name}_c{k}")) for k in range(ncmds)
    ]
    init_x = draw(st.integers(0, 2))
    init_b = draw(st.booleans())
    loose = draw(st.booleans())
    if loose:
        init = ExprPredicate(SHARED_X.ref() == init_x)
    else:
        init = ExprPredicate(
            land(SHARED_X.ref() == init_x, SHARED_B.ref() if init_b else lnot(SHARED_B.ref()))
        )
    # Structurally identical commands merge under the §2 set-union
    # semantics, so draw fairness from the *constructed* command set.
    base = Program(name, list(SHARED_VARS), init, commands + [Skip()], fair=[])
    fair = [
        c.name
        for c in base.commands
        if not c.is_skip() and draw(st.booleans())
    ]
    return Program(name, list(SHARED_VARS), init, list(base.commands), fair=fair)


@st.composite
def program_pair_strategy(draw) -> tuple[Program, Program]:
    """Two compatible programs over the same shared universe, with a
    guaranteed-consistent joint ``initially``."""
    f = draw(program_strategy("F"))
    g = draw(program_strategy("G"))
    # Force consistency of the initial conjunction: reuse F's init for G.
    g = Program("G", list(SHARED_VARS), f.init, list(g.commands), fair=sorted(g.fair_names))
    return f, g
