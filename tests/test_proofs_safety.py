"""Tests for the safety proof kernel (repro.core.proofs): each rule's
acceptance of valid applications and rejection of invalid ones."""

import pytest

from repro.core.commands import GuardedCommand
from repro.core.composition import compose_all, inert_program, lifted
from repro.core.domains import IntRange
from repro.core.expressions import land
from repro.core.predicates import ExprPredicate, TRUE
from repro.core.program import Program
from repro.core.proofs import (
    ConstantExpressions,
    InitConjunction,
    InitLeaf,
    InitLift,
    InitWeaken,
    InvariantIntro,
    StableConjunction,
    StableLeaf,
    UniversalLift,
)
from repro.core.variables import Var
from repro.errors import ProofError

X = Var.shared("x", IntRange(0, 3))
Y = Var.shared("y", IntRange(0, 3))


def pred(e):
    return ExprPredicate(e)


def both_inc():
    """One command raising x and y together: x - y is constant."""
    return GuardedCommand(
        "both", land(X.ref() < 3, Y.ref() < 3),
        [(X, X.ref() + 1), (Y, Y.ref() + 1)],
    )


def program():
    return Program(
        "P", [X, Y], pred(land(X.ref() == 0, Y.ref() == 0)), [both_inc()],
        fair=["both"],
    )


class TestLeaves:
    def test_stable_leaf_accepts(self):
        res = StableLeaf(pred(X.ref() - Y.ref() == 0)).check(program())
        assert res.ok
        assert res.obligations_checked == 1

    def test_stable_leaf_rejects(self):
        res = StableLeaf(pred(X.ref() == 0)).check(program())
        assert not res.ok
        assert "stable" in str(res.failures[0])

    def test_init_leaf(self):
        assert InitLeaf(pred(X.ref() == 0)).check(program()).ok
        assert not InitLeaf(pred(X.ref() == 1)).check(program()).ok


class TestStableConjunction:
    def test_combines(self):
        proof = StableConjunction([
            StableLeaf(pred(X.ref() - Y.ref() == 0)),
            StableLeaf(pred(X.ref() >= 0)),
        ])
        form, conj = proof.concludes()
        assert form == "stable"
        assert proof.check(program()).ok

    def test_empty_rejected(self):
        with pytest.raises(ProofError):
            StableConjunction([])

    def test_wrong_premise_form_rejected(self):
        proof = StableConjunction([InitLeaf(pred(X.ref() == 0))])
        res = proof.check(program())
        assert not res.ok
        assert "must conclude a stable" in str(res.failures[0])

    def test_failing_leaf_propagates(self):
        proof = StableConjunction([
            StableLeaf(pred(X.ref() - Y.ref() == 0)),
            StableLeaf(pred(X.ref() == 2)),  # not stable
        ])
        assert not proof.check(program()).ok


class TestConstantExpressions:
    def test_accepts_function_of_constants(self):
        proof = ConstantExpressions(
            [X.ref() - Y.ref()], pred(X.ref() - Y.ref() == 0)
        )
        res = proof.check(program())
        assert res.ok, res.explain()

    def test_rejects_nonconstant_expression(self):
        proof = ConstantExpressions([X.ref()], pred(X.ref() == 0))
        res = proof.check(program())
        assert not res.ok
        assert "not constant" in str(res.failures[0])

    def test_rejects_non_function_target(self):
        # x+y changes while x-y stays: target must not depend on x+y.
        proof = ConstantExpressions(
            [X.ref() - Y.ref()], pred(X.ref() + Y.ref() == 0)
        )
        res = proof.check(program())
        assert not res.ok
        assert "not a function" in str(res.failures[0])

    def test_multiple_constants(self):
        # Both x-y and the parity of x-y are constant; target mixes them.
        proof = ConstantExpressions(
            [X.ref() - Y.ref(), (X.ref() - Y.ref()) % 2],
            pred((X.ref() - Y.ref()) % 2 == 0),
        )
        assert proof.check(program()).ok

    def test_empty_exprs_rejected(self):
        with pytest.raises(ProofError):
            ConstantExpressions([], TRUE)


class TestConstantExpressionsOnTheSubspace:
    """The rule decides both obligations on the proof's domain: the
    reachable subspace of a system no dense table can hold, where the
    answer is the reachable-restricted ``stable``."""

    @staticmethod
    def _pipeline():
        from repro.systems.pipeline import build_pipeline_system

        return build_pipeline_system(20, total=3)

    def test_conservation_on_a_sparse_routed_system(self):
        s = self._pipeline()
        total = s.avail.ref() + s.in_flight() + s.done.ref()
        res = ConstantExpressions([total], s.conservation_predicate()).check(
            s.system
        )
        assert res.ok, res.explain()
        assert res.obligations_checked == 2

    def test_constancy_failure_is_reported_on_the_subspace(self):
        s = self._pipeline()
        res = ConstantExpressions(
            [s.avail.ref()], s.conservation_predicate()
        ).check(s.system)
        assert not res.ok
        message = str(res.failures[0])
        assert "expression avail is not constant under command feed" in message
        assert "done=" in message

    @staticmethod
    def _stray():
        """x - y is constant on the reachable states (x = y) only: the
        unreachable state x=3, y=0 lets ``stray`` move y alone."""
        stray = GuardedCommand(
            "stray", land(X.ref() == 3, Y.ref() == 0), [(Y, Y.ref() + 1)]
        )
        return Program(
            "Stray",
            [X, Y],
            land(X.ref() == 0, Y.ref() == 0),
            [both_inc(), stray],
        )

    def test_reachable_restricted_answer(self):
        from repro.semantics.domain import FullSpace
        from repro.semantics.sparse.explorer import reachable_subspace

        prog_ = self._stray()
        proof = ConstantExpressions([X.ref() - Y.ref()], pred(X.ref() - Y.ref() == 0))
        full = proof.check_on(FullSpace(prog_))
        assert not full.ok
        assert "not constant under command stray" in str(full.failures[0])
        assert "x=3, y=0" in str(full.failures[0])
        reach = proof.check_on(reachable_subspace(prog_))
        assert reach.ok, reach.explain()
        assert reach.obligations_checked == full.obligations_checked == 2

    def test_functional_dependence_on_the_subspace(self):
        from repro.semantics.sparse.explorer import reachable_subspace

        prog_ = self._stray()
        proof = ConstantExpressions([X.ref() - Y.ref()], pred(X.ref() == 0))
        res = proof.check_on(reachable_subspace(prog_))
        assert not res.ok
        assert "not a function" in str(res.failures[0])


class TestInitRules:
    def test_init_weaken(self):
        proof = InitWeaken(InitLeaf(pred(X.ref() == 0)), pred(X.ref() <= 1))
        assert proof.check(program()).ok

    def test_init_weaken_rejects_invalid_implication(self):
        proof = InitWeaken(InitLeaf(pred(X.ref() <= 1)), pred(X.ref() == 0))
        # premise init x<=1 holds; x<=1 ⇒ x=0 is invalid.
        assert not proof.check(program()).ok

    def test_init_conjunction(self):
        proof = InitConjunction([
            InitLeaf(pred(X.ref() == 0)), InitLeaf(pred(Y.ref() == 0)),
        ])
        assert proof.check(program()).ok
        form, conj = proof.concludes()
        assert form == "init"

    def test_invariant_intro(self):
        target = pred(X.ref() - Y.ref() == 0)
        proof = InvariantIntro(InitLeaf(target), StableLeaf(target))
        assert proof.check(program()).ok

    def test_invariant_intro_mismatched_predicates(self):
        proof = InvariantIntro(
            InitLeaf(pred(X.ref() == 0)),
            StableLeaf(pred(X.ref() - Y.ref() == 0)),
        )
        res = proof.check(program())
        assert not res.ok
        assert "inequivalent" in str(res.failures[0])


class TestLifting:
    def _components(self):
        cx = Var.local("cx", IntRange(0, 3))
        cy = Var.local("cy", IntRange(0, 3))
        shared = Var.shared("s", IntRange(0, 6))
        fa = GuardedCommand(
            "fa", land(cx.ref() < 3, shared.ref() < 6),
            [(cx, cx.ref() + 1), (shared, shared.ref() + 1)],
        )
        fb = GuardedCommand(
            "fb", land(cy.ref() < 3, shared.ref() < 6),
            [(cy, cy.ref() + 1), (shared, shared.ref() + 1)],
        )
        f = Program("F", [cx, shared], pred(land(cx.ref() == 0, shared.ref() == 0)), [fa])
        g = Program("G", [cy, shared], pred(land(cy.ref() == 0, shared.ref() == 0)), [fb])
        system = compose_all([f, g], name="S")
        return f, g, system, cx, cy, shared

    def test_universal_lift_accepts(self):
        f, g, system, cx, cy, shared = self._components()
        target = pred(shared.ref() == cx.ref() + cy.ref())
        proof = UniversalLift([
            (lifted(f, system), ConstantExpressions(
                [shared.ref() - cx.ref(), cy.ref()], target)),
            (lifted(g, system), ConstantExpressions(
                [shared.ref() - cy.ref(), cx.ref()], target)),
        ])
        res = proof.check(system)
        assert res.ok, res.explain()

    def test_universal_lift_requires_lifted_components(self):
        f, g, system, cx, cy, shared = self._components()
        target = pred(shared.ref() == cx.ref() + cy.ref())
        proof = UniversalLift([
            (f, ConstantExpressions([shared.ref() - cx.ref()], target)),
        ])
        res = proof.check(system)
        assert not res.ok
        assert "lift" in str(res.failures[0])

    def test_universal_lift_requires_command_coverage(self):
        f, g, system, cx, cy, shared = self._components()
        target = pred(shared.ref() == cx.ref() + cy.ref())
        proof = UniversalLift([
            (lifted(f, system), ConstantExpressions(
                [shared.ref() - cx.ref(), cy.ref()], target)),
            # G's proof missing: its command fb is uncovered.
        ])
        res = proof.check(system)
        assert not res.ok
        assert "not covered" in str(res.failures[-1])

    def test_init_lift_accepts(self):
        f, g, system, cx, cy, shared = self._components()
        proof = InitLift(f, InitLeaf(pred(land(cx.ref() == 0, shared.ref() == 0))))
        assert proof.check(system).ok

    def test_init_lift_rejects_foreign_component(self):
        f, g, system, cx, cy, shared = self._components()
        stranger = inert_program(
            "Stranger", [shared]
        )
        # Build a stranger whose init is NOT entailed by the system's.
        stranger = Program(
            "Stranger", [shared], pred(shared.ref() == 5), []
        )
        proof = InitLift(stranger, InitLeaf(pred(shared.ref() == 5)))
        res = proof.check(system)
        assert not res.ok
        assert "does not entail" in str(res.failures[0])

    def test_rendering_includes_components(self):
        f, g, system, cx, cy, shared = self._components()
        target = pred(shared.ref() == cx.ref() + cy.ref())
        proof = UniversalLift([
            (lifted(f, system), ConstantExpressions(
                [shared.ref() - cx.ref(), cy.ref()], target)),
        ])
        text = proof.render()
        assert "in component F^" in text
        assert proof.count_nodes() >= 2
