"""Tests for repro.core.commands: apply / succ_table / wp, three-way
agreement, guards, alternatives, domain safety."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commands import AltCommand, Assignment, GuardedCommand, Skip
from repro.core.domains import IntRange
from repro.core.expressions import ite, land, lnot
from repro.core.predicates import ExprPredicate
from repro.core.state import State, StateSpace
from repro.core.variables import Var
from repro.errors import CommandError, DomainError

from tests.conftest import SHARED_B, SHARED_VARS, SHARED_X, command_strategy

X = Var.shared("x", IntRange(0, 3))
B = Var.boolean("b")
SPACE = StateSpace([X, B])


def xb(x, b):
    return State({X: x, B: b})


class TestSkip:
    def test_identity(self):
        s = xb(2, True)
        assert Skip().apply(s) is s

    def test_table_is_identity(self):
        assert (Skip().succ_table(SPACE) == np.arange(SPACE.size)).all()

    def test_wp_is_identity(self):
        p = ExprPredicate(X.ref() == 1)
        assert Skip().wp(p) is p

    def test_reads_writes_empty(self):
        assert Skip().reads() == frozenset()
        assert Skip().writes() == frozenset()

    def test_body_key_shared(self):
        assert Skip("s1").body_key() == Skip("s2").body_key()


class TestGuardedCommand:
    def setup_method(self):
        self.inc = GuardedCommand("inc", X.ref() < 3, [(X, X.ref() + 1)])

    def test_apply_fires(self):
        assert self.inc.apply(xb(1, False))[X] == 2

    def test_apply_skips_when_guard_false(self):
        s = xb(3, False)
        assert self.inc.apply(s)[X] == 3

    def test_simultaneous_multi_assignment(self):
        swapish = GuardedCommand(
            "m", True, [(X, ite(B.ref(), 0, 3)), (B, lnot(B.ref()))]
        )
        out = swapish.apply(xb(1, True))
        assert out[X] == 0 and out[B] is False

    def test_table_matches_apply(self):
        table = self.inc.succ_table(SPACE)
        for i in range(SPACE.size):
            expected = SPACE.index_of(self.inc.apply(SPACE.state_at(i)))
            assert table[i] == expected

    def test_wp_matches_semantics(self):
        p = ExprPredicate(X.ref() == 2)
        wp = self.inc.wp(p)
        for i in range(SPACE.size):
            s = SPACE.state_at(i)
            assert wp.holds(s) == p.holds(self.inc.apply(s))

    def test_domain_violation_scalar(self):
        bad = GuardedCommand("bad", True, [(X, X.ref() + 1)])
        with pytest.raises(DomainError):
            bad.apply(xb(3, False))

    def test_domain_violation_vectorized(self):
        bad = GuardedCommand("bad", True, [(X, X.ref() + 1)])
        with pytest.raises(DomainError):
            bad.succ_table(SPACE)

    def test_duplicate_targets_rejected(self):
        with pytest.raises(CommandError):
            GuardedCommand("d", True, [(X, X.ref()), (X, X.ref())])

    def test_empty_assignments_rejected(self):
        with pytest.raises(CommandError):
            GuardedCommand("e", True, [])

    def test_type_mismatch_rejected(self):
        with pytest.raises(CommandError):
            Assignment(X, B.ref())

    def test_non_bool_guard_rejected(self):
        with pytest.raises(CommandError):
            GuardedCommand("g", X.ref(), [(X, X.ref())])

    def test_reads_writes(self):
        cmd = GuardedCommand("c", B.ref(), [(X, X.ref() + 0)])
        assert cmd.reads() == {B, X}
        assert cmd.writes() == {X}

    def test_body_key_ignores_name(self):
        a = GuardedCommand("a", X.ref() < 3, [(X, X.ref() + 1)])
        b = GuardedCommand("b", X.ref() < 3, [(X, X.ref() + 1)])
        assert a.body_key() == b.body_key()

    def test_body_key_differs_on_guard(self):
        a = GuardedCommand("a", X.ref() < 3, [(X, X.ref() + 1)])
        b = GuardedCommand("a", X.ref() < 2, [(X, X.ref() + 1)])
        assert a.body_key() != b.body_key()

    def test_renamed_preserves_body(self):
        r = self.inc.renamed("other")
        assert r.name == "other"
        assert r.body_key() == self.inc.body_key()


class TestAltCommand:
    def setup_method(self):
        self.alt = AltCommand("step", [
            (X.ref() == 0, [(X, 1)]),
            (X.ref() == 1, [(X, 2)]),
            (B.ref(), [(X, 0)]),
        ])

    def test_first_match_semantics(self):
        assert self.alt.apply(xb(0, True))[X] == 1   # first branch wins
        assert self.alt.apply(xb(1, True))[X] == 2
        assert self.alt.apply(xb(2, True))[X] == 0   # third branch
        assert self.alt.apply(xb(2, False))[X] == 2  # no branch: skip

    def test_table_matches_apply(self):
        table = self.alt.succ_table(SPACE)
        for i in range(SPACE.size):
            assert table[i] == SPACE.index_of(self.alt.apply(SPACE.state_at(i)))

    def test_wp_matches_semantics(self):
        p = ExprPredicate(X.ref() <= 1)
        wp = self.alt.wp(p)
        for i in range(SPACE.size):
            s = SPACE.state_at(i)
            assert wp.holds(s) == p.holds(self.alt.apply(s))

    def test_empty_branches_rejected(self):
        with pytest.raises(CommandError):
            AltCommand("a", [])

    def test_reads_writes_union(self):
        assert self.alt.writes() == {X}
        assert B in self.alt.reads()

    def test_branch_with_no_assignments_acts_as_skip(self):
        alt = AltCommand("n", [(X.ref() == 0, [])])
        s = xb(0, False)
        assert alt.apply(s) == s
        assert (alt.succ_table(SPACE) == np.arange(SPACE.size)).all()


SHARED_SPACE = StateSpace(list(SHARED_VARS))


@settings(max_examples=60)
@given(
    command_strategy("rand"),
    st.lists(st.integers(0, SHARED_SPACE.size - 1), unique=True),
)
def test_random_commands_three_way_agreement(cmd, subset):
    """apply / succ_table / wp agree on every state for random commands,
    and the frontier forms (``succ_of``, ``enabled_at``, ``mask_at``) on a
    shuffled index subset equal the rows of the whole-space forms.  Both
    forms run one kernel, so the scalar ``apply`` / guard is the oracle."""
    space = SHARED_SPACE
    table = cmd.succ_table(space)
    enabled = cmd.enabled_mask(space)
    target = ExprPredicate(land(SHARED_X.ref() >= 1, SHARED_B.ref()))
    wp = cmd.wp(target)
    tmask = target.mask(space)
    wmask = wp.mask(space)
    for i in range(space.size):
        s = space.state_at(i)
        succ = cmd.apply(s)
        assert table[i] == space.index_of(succ)
        assert wmask[i] == tmask[table[i]]
        assert enabled[i] == cmd.guard.eval(s)
    idx = np.array(subset, dtype=np.int64)
    assert np.array_equal(cmd.succ_of(space, idx), table[idx])
    assert np.array_equal(cmd.enabled_at(space, idx), enabled[idx])
    assert np.array_equal(target.mask_at(space, idx), tmask[idx])
    assert np.array_equal(wp.mask_at(space, idx), wmask[idx])


def test_partial_rhs_is_evaluated_only_where_the_guard_holds():
    # ``x // y`` is undefined at y = 0, where the guard makes the command
    # a skip; no form of the command may evaluate it there.
    x = Var.shared("x", IntRange(0, 4))
    y = Var.shared("y", IntRange(0, 2))
    space = StateSpace([x, y])
    half = GuardedCommand("half", y.ref() != 0, [(x, x.ref() // y.ref())])
    alt = AltCommand(
        "alt", [(y.ref() == 0, [(y, 1)]), (True, [(x, x.ref() // y.ref())])]
    )
    idx = np.arange(space.size, dtype=np.int64)[::-1]
    for cmd in (half, alt):
        table = cmd.succ_table(space)
        for i in range(space.size):
            assert table[i] == space.index_of(cmd.apply(space.state_at(i)))
        assert np.array_equal(cmd.succ_of(space, idx), table[idx])
