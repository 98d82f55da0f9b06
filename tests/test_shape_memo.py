"""The footprint kernel decides each obligation shape once.

``FootprintKernel`` answers an obligation from its memo when another
obligation with the same *shape* was decided before: the same printed
text up to a renaming of variables, over the same ordered domains.  These
tests pin what the key must keep apart — each pair below matches up to
renaming but has two verdicts, and is decided in both orders on one
kernel — and the per-kernel footprint-space cache, which must tell
same-named variables of different domains apart.
"""

from __future__ import annotations

import pytest

from repro.core.commands import GuardedCommand
from repro.core.domains import EnumDomain, IntRange
from repro.core.expressions import const
from repro.core.predicates import TRUE, ExprPredicate
from repro.core.variables import Var
from repro.semantics.obligations import FootprintKernel


def _decide_both_orders(first, second):
    """``(ok of first, ok of second)`` decided on one kernel in each
    order; both orders must agree with fresh kernels."""
    fresh = (
        FootprintKernel().entails(*first).ok,
        FootprintKernel().entails(*second).ok,
    )
    for a, b, flip in ((first, second, False), (second, first, True)):
        kernel = FootprintKernel()
        got = (kernel.entails(*a).ok, kernel.entails(*b).ok)
        assert (got[::-1] if flip else got) == fresh
    return fresh


class TestShapeKey:
    def test_domain_bounds_keep_shapes_apart(self):
        """``true ⇒ v <= 3`` holds over int[0..3], fails over int[0..4]:
        the hetero stack's capacities cycle exactly like this."""
        v = Var.shared("v", IntRange(0, 3))
        w = Var.shared("w", IntRange(0, 4))
        verdicts = _decide_both_orders(
            (TRUE, ExprPredicate(v.ref() <= 3)),
            (TRUE, ExprPredicate(w.ref() <= 3)),
        )
        assert verdicts == (True, False)

    def test_sharing_pattern_keeps_shapes_apart(self):
        """``x + y`` and ``x + x`` over the same variables and domains."""
        x = Var.shared("x", IntRange(0, 1))
        y = Var.shared("y", IntRange(0, 1))
        verdicts = _decide_both_orders(
            (TRUE, ExprPredicate((x.ref() + y.ref() != 1) | (y.ref() > 1))),
            (TRUE, ExprPredicate((x.ref() + x.ref() != 1) | (y.ref() > 1))),
        )
        assert verdicts == (False, True)

    def test_enum_label_spelled_like_a_variable(self):
        """``red = red \\/ c = red`` where the middle ``red`` is a label
        prints like ``d = d \\/ c = d``; the first fails, the second holds,
        so an obligation naming a variable after a label bypasses the
        memo."""
        colour = EnumDomain("colour", ("red", "blue"))
        red = Var.shared("red", colour)
        c = Var.shared("c", colour)
        d = Var.shared("d", colour)
        labelled = ExprPredicate(
            (red.ref() == const("red")) | (c.ref() == red.ref())
        )
        plain = ExprPredicate((d.ref() == d.ref()) | (c.ref() == d.ref()))
        verdicts = _decide_both_orders((TRUE, labelled), (TRUE, plain))
        assert verdicts == (False, True)
        assert FootprintKernel()._shape("entails", (TRUE, labelled)) is None

    def test_renamed_copies_share_one_decision(self):
        """Stage-like copies glued along a shared variable are decided
        once; the hit adds the original decision's evaluation count."""
        done = Var.shared("done", IntRange(0, 3))
        kernel = FootprintKernel()
        evaluations = []
        for i in range(4):
            a = Var.shared(f"c[{i}]", IntRange(0, 3))
            b = Var.shared(f"c[{i + 1}]", IntRange(0, 3))
            move = GuardedCommand(
                f"move[{i}]", a.ref() > 0, [(a, a.ref() - 1), (b, b.ref() + 1)]
            )
            pre = ExprPredicate((a.ref() > 0) & (b.ref() < 3))
            post = ExprPredicate((b.ref() > 0) | (done.ref() > 0))
            before = kernel.evaluations
            assert kernel.check_wp(pre, move, post).ok
            evaluations.append(kernel.evaluations - before)
        assert kernel.decided["check_wp"] == 1
        assert kernel.by_shape["check_wp"] == 3
        assert len(set(evaluations)) == 1 and evaluations[0] > 0

    def test_results_with_dropped_conjuncts_are_not_stored(self):
        """A refusal after dropping an oversized hypothesis conjunct may
        be a projection artifact, not the obligation's verdict, so its
        renamed copy is decided again.  (Here the dropped conjunct is
        unsatisfiable: the real obligation is valid.)"""
        kernel = FootprintKernel(max_states=4)
        for i in range(2):
            x, y, z = (Var.shared(f"{n}{i}", IntRange(0, 1)) for n in "xyz")
            hyp = ExprPredicate((x.ref() >= 0) & (y.ref() + z.ref() >= 5))
            res = kernel.entails(hyp, ExprPredicate(x.ref() > 0))
            assert not res.ok and res.dropped
        assert kernel.decided["entails"] == 2
        assert kernel.by_shape["entails"] == 0

    def test_failing_hit_message_is_the_real_obligations(self):
        """A failing hit names its own variables and command, byte for
        byte what a fresh kernel says, and reading it moves no counter."""
        kernel = FootprintKernel()
        results = []
        for i in range(3):
            a = Var.shared(f"a{i}", IntRange(0, 2))
            bump = GuardedCommand(f"bump{i}", a.ref() < 2, [(a, a.ref() + 1)])
            pre = ExprPredicate(a.ref() <= 1)
            post = ExprPredicate(a.ref() <= 1)
            results.append((kernel.check_wp(pre, bump, post), (pre, bump, post)))
        assert kernel.by_shape["check_wp"] == 2
        evaluations = kernel.evaluations
        for res, args in results:
            want = FootprintKernel().check_wp(*args)
            assert not res.ok and not want.ok
            assert res.message == want.message
        assert kernel.evaluations == evaluations
        assert "bump2" in results[2][0].message


class TestFootprintSpaces:
    def test_same_name_different_domain(self):
        """Footprint spaces are keyed by the variables, not their names:
        ``x >= 0 ⇒ x <= 3`` holds for ``x : int[0..3]`` and then fails at
        ``{x=4}`` for a same-named ``x : int[0..4]`` on the same kernel."""
        kernel = FootprintKernel()
        for hi, holds in ((3, True), (4, False)):
            x = Var.shared("x", IntRange(0, hi))
            res = kernel.entails(
                ExprPredicate(x.ref() >= 0), ExprPredicate(x.ref() <= 3)
            )
            assert res.ok is holds
        assert "{x=4}" in res.message

    @pytest.mark.parametrize("first", [3, 4])
    def test_spaces_follow_domains_in_either_order(self, first):
        kernel = FootprintKernel()
        for hi in (first, 7 - first):
            x = Var.shared("x", IntRange(0, hi))
            res = kernel.entails(TRUE, ExprPredicate(x.ref() <= 3))
            assert res.ok is (hi == 3)
        assert len(kernel._spaces) == 2


class TestStatePerCheck:
    """Everything the kernel reuses lives in one kernel, i.e. one check:
    nothing is carried from one request to the next."""

    @staticmethod
    def _counters(res):
        return (
            res.ok,
            res.obligations_checked,
            res.nodes_checked,
            res.frame_skips,
            res.footprint_evaluations,
            res.components_checked,
            dict(res.notes),
        )

    def test_two_checks_of_one_stack_count_alike(self):
        from repro.semantics.compositional import check_compositional
        from repro.systems.compose_proof import (
            build_delivery_certificate,
            build_hetero_stack,
        )

        stack = build_hetero_stack(6)
        first = check_compositional(build_delivery_certificate(stack))
        second = check_compositional(build_delivery_certificate(stack))
        assert first.ok
        assert first.notes["obligations_decided"] > 0
        assert first.notes["obligations_by_shape"] > 0
        assert self._counters(first) == self._counters(second)

    def test_decided_failure_message_is_built_on_read(self):
        """A decided failure's message is built when read: byte for byte
        the text pinned here (hypothesis, wp, the first failing state of
        the footprint space), and reading it moves no counter."""
        x = Var.shared("x", IntRange(0, 3))
        y = Var.shared("y", IntRange(0, 2))
        z = Var.shared("z", IntRange(0, 1))
        step = GuardedCommand(
            "step", x.ref() < 3, [(x, x.ref() + 1), (y, (y.ref() + 1) % 3)]
        )
        pre = ExprPredicate((x.ref() >= 1) & (y.ref() + z.ref() >= 2))
        post = ExprPredicate((x.ref() <= 2) | (y.ref() == 0))
        kernel = FootprintKernel()
        res = kernel.check_wp(pre, step, post)
        counters = (kernel.evaluations, dict(kernel.decided), dict(kernel.by_shape))
        assert not res.ok
        want = (
            "command step: x >= 1 /\\ y + z >= 2 ⇒ x < 3 /\\ (x + 1 <= 2 \\/ "
            "(y + 1) % 3 = 0) \\/ ~(x < 3) /\\ (x <= 2 \\/ y = 0) fails on the "
            "footprint at {x=2, y=1, z=1}"
        )
        assert res.message == want
        assert FootprintKernel().check_wp(pre, step, post).message == want
        assert (kernel.evaluations, kernel.decided, kernel.by_shape) == counters
        # The goal is evaluated on the hypothesis rows only; the first bad
        # row is still the whole footprint space's first one.
        res = kernel.entails(pre, ExprPredicate(x.ref() + y.ref() <= 3))
        assert res.message == (
            "x >= 1 /\\ y + z >= 2 ⇒ x + y <= 3 fails on the footprint at "
            "{x=2, y=2, z=0}"
        )
        res = kernel.entails(
            ExprPredicate(z.ref() == 1) & ExprPredicate(x.ref() >= 2),
            ExprPredicate(y.ref() < 2),
        )
        assert res.message == (
            "z = 1 /\\ x >= 2 ⇒ y < 2 fails on the footprint at {x=2, y=2, z=1}"
        )
        assert kernel.evaluations == 11

    def test_no_module_level_memo(self):
        import repro.semantics.obligations as obligations

        mutable = [
            name
            for name, value in vars(obligations).items()
            if not name.startswith("__")
            and (
                isinstance(value, (dict, list, set))
                or hasattr(value, "cache_info")
            )
        ]
        assert mutable == []
