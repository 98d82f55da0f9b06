"""``GuardedCommand`` is the one guarded-command class: ``AltCommand``
builds it from a branch list, and a one-branch alternative is the
paper's ``g → A`` in every form the engine reads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.commands import AltCommand, GuardedCommand
from repro.core.compositional import StrongEnsures
from repro.core.domains import IntRange
from repro.core.predicates import ExprPredicate
from repro.core.program import Program
from repro.core.rules import Implication
from repro.core.state import StateSpace
from repro.core.variables import Var
from repro.errors import CommandError, ProofError
from repro.semantics.obligations import FootprintKernel

X = Var.shared("x", IntRange(0, 3))
Y = Var.shared("y", IntRange(0, 3))
SPACE = StateSpace([X, Y])


def _single():
    return X.ref() < 3, [(X, X.ref() + 1), (Y, 0)]


def _two_branches(name="alt"):
    return AltCommand(
        name,
        [
            (X.ref() < 3, [(X, X.ref() + 1), (Y, Y.ref() - 1)]),
            (Y.ref() < 3, [(Y, Y.ref() + 1), (X, X.ref() - 1)]),
        ],
    )


class TestOneBranchAlternative:
    def test_is_the_guarded_command(self):
        guard, assigns = _single()
        alt = AltCommand("inc", [(guard, assigns)])
        plain = GuardedCommand("inc", guard, assigns)
        assert type(alt) is GuardedCommand
        assert alt.describe() == plain.describe()
        assert alt.body_key() == plain.body_key()
        target = ExprPredicate(X.ref() + Y.ref() >= 2)
        assert alt.wp(target).describe() == plain.wp(target).describe()
        assert np.array_equal(alt.succ_table(SPACE), plain.succ_table(SPACE))
        assert np.array_equal(alt.enabled_mask(SPACE), plain.enabled_mask(SPACE))
        assert alt.guard is plain.guard
        assert repr(alt.assignments) == repr(plain.assignments)

    def test_true_guard_is_dropped_from_the_text(self):
        alt = AltCommand("set", [(True, [(X, 1)])])
        assert alt.describe() == GuardedCommand("set", True, [(X, 1)]).describe()
        assert alt.describe() == "x := 1"

    def test_program_keeps_one_command(self):
        guard, assigns = _single()
        program = Program(
            "P",
            [X, Y],
            ExprPredicate(X.ref() == 0),
            [AltCommand("a", [(guard, assigns)]), GuardedCommand("b", guard, assigns)],
        )
        guarded = [c for c in program.commands if not c.is_skip()]
        assert len(guarded) == 1


class TestSeveralBranches:
    def test_single_branch_fields_refuse(self):
        alt = _two_branches()
        with pytest.raises(AttributeError, match="2 branches"):
            alt.guard
        with pytest.raises(AttributeError, match="2 branches"):
            alt.assignments

    def test_true_guard_is_kept_in_the_text(self):
        alt = AltCommand("a", [(X.ref() == 0, [(X, 1)]), (True, [(X, 0)])])
        assert alt.describe() == "x = 0 -> x := 1  [] true -> x := 0"

    def test_renamed_keeps_branches_and_origins(self):
        alt = _two_branches().with_origins(frozenset({"F"}))
        other = alt.renamed("other")
        assert other.name == "other"
        assert other.origins == frozenset({"F"})
        assert other.branches == alt.branches

    def test_linear_stable_refuses(self):
        alt = _two_branches("swap")
        pred = ExprPredicate(X.ref() + Y.ref() == 3)
        res = FootprintKernel().check_linear_stable(pred, [alt])
        assert not res.ok
        assert res.message == (
            "refused: command swap is not a guarded command "
            "(write deltas are not expressible)"
        )

    def test_linear_stable_accepts_one_branch_alternative(self):
        alt = AltCommand("move", [(X.ref() > 0, [(X, X.ref() - 1), (Y, Y.ref() + 1)])])
        pred = ExprPredicate(X.ref() + Y.ref() == 3)
        assert FootprintKernel().check_linear_stable(pred, [alt]).ok

    def test_strong_ensures_refuses(self):
        alt = _two_branches("swap")
        program = Program("P", [X, Y], ExprPredicate(X.ref() == 0), [alt])
        p = ExprPredicate(X.ref() == 0)
        node = StrongEnsures(p, p, helpful="swap", recurrence=Implication(p, p))
        with pytest.raises(ProofError) as info:
            node.enabled_predicate(program)
        assert str(info.value) == (
            "strong-ensures: helpful command 'swap' must be a guarded "
            "command (its enabledness must be expressible)"
        )

    def test_enabled_is_any_guard(self):
        alt = AltCommand("a", [(X.ref() == 0, [(X, 1)]), (Y.ref() == 0, [(Y, 1)])])
        expected = np.array(
            [SPACE.state_at(i)[X] == 0 or SPACE.state_at(i)[Y] == 0 for i in range(SPACE.size)]
        )
        assert np.array_equal(alt.enabled_mask(SPACE), expected)


class TestBranchesWithoutAssignments:
    def test_acts_as_skip_and_blocks_later_branches(self):
        alt = AltCommand("a", [(X.ref() == 0, []), (True, [(X, 2)])])
        table = alt.succ_table(SPACE)
        for i in range(SPACE.size):
            state = SPACE.state_at(i)
            succ = alt.apply(state)
            assert table[i] == SPACE.index_of(succ)
            assert succ[X] == (0 if state[X] == 0 else 2)
        idx = np.arange(SPACE.size, dtype=np.int64)[::-1]
        assert np.array_equal(alt.succ_of(SPACE, idx), table[idx])

    def test_refusals(self):
        with pytest.raises(CommandError, match="needs branches"):
            AltCommand("a", [])
        with pytest.raises(CommandError, match="use Skip"):
            GuardedCommand("g", X.ref() == 0, [])
