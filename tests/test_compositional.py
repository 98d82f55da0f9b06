"""Assume–guarantee certification: the product, never materialized.

Positive direction: the compositional kernel certifies the heterogeneous
pipeline ∘ allocator stack, and on instances small enough to explore its
verdict agrees with the dense per-level walk of the *same* rule tree (the
differential oracle) and with the explored model checker.

Negative direction (the refusal contract): a broken side condition, an
interfering command, an inconsistent initially-conjunction, and a
membership lie must each fail the check — the kernel refuses, it never
guesses.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.commands import GuardedCommand
from repro.core.compositional import (
    CompositionalCertificate,
    SupportSplit,
)
from repro.core.domains import IntRange
from repro.core.predicates import ExprPredicate
from repro.core.program import Program
from repro.core.rules import Implication
from repro.core.variables import Var
from repro.semantics.compositional import check_compositional
from repro.semantics.strong_fairness import check_leadsto_strong
from repro.systems.compose_proof import (
    build_delivery_certificate,
    build_hetero_stack,
    encoded_size,
)


@pytest.fixture(scope="module")
def small_stack():
    """An instance small enough for the dense oracle to explore."""
    pa = build_hetero_stack(3, clients=2, total=2)
    return pa, build_delivery_certificate(pa)


# ---------------------------------------------------------------------------
# Positive: certification, differential oracle, flagship scale
# ---------------------------------------------------------------------------


class TestCertification:
    def test_small_stack_certifies(self, small_stack):
        pa, cert = small_stack
        res = check_compositional(cert)
        assert res.ok, res.explain()
        assert res.components_checked == len(pa.components)
        assert res.frame_skips > 0          # the frame rule did real work
        assert res.footprint_evaluations > 0
        # Every footprint space stayed tiny (that is the whole point).
        assert res.notes["footprint_spaces"] > 0

    def test_differential_against_dense_oracle(self, small_stack):
        """The dense per-level walk of the *same* rule tree agrees."""
        pa, cert = small_stack
        dense = cert.proof.check(pa.system)
        assert dense.ok, dense.explain()

    def test_differential_against_explored_checker(self, small_stack):
        """The explored model checker agrees with the certificate."""
        pa, cert = small_stack
        res = check_leadsto_strong(pa.system, cert.p, cert.q)
        assert res.holds

    def test_flagship_50_stage_stack(self):
        """The win condition: a product beyond every exploration tier is
        certified in time linear in the component count, with zero
        product-space states materialized."""
        pa = build_hetero_stack(50, clients=3, total=3)
        size = encoded_size(pa)
        assert size > 10**30               # far beyond int64, let alone BFS
        cert = build_delivery_certificate(pa)
        res = check_compositional(cert)
        assert res.ok, res.explain()
        assert res.components_checked == 54
        # Linear in components, not in the product: every footprint
        # stayed below the kernel cap, which is microscopic next to the
        # encoded product.
        assert res.footprint_evaluations < 50_000

    def test_certificate_records_the_derivation(self, small_stack):
        pa, cert = small_stack
        assert cert.guarantee is not None
        assert any("g-transitivity" in step for step in cert.guarantee_trail)
        assert len(cert.component_certs) == len(pa.components)
        text = cert.render()
        assert "compositional certificate" in text

    def test_check_scales_linearly_in_components(self, monkeypatch):
        """Obligations grow ~linearly with the stage count (the product
        grows exponentially), and the obligations the footprint kernel
        actually decides do not grow at all: stages are renamed copies,
        so their ``check_wp`` obligations are answered by shape."""
        from repro.semantics import compositional

        counts = {}
        for stages in (5, 10, 20):
            pa = build_hetero_stack(stages, clients=2, total=2)
            res = check_compositional(build_delivery_certificate(pa))
            assert res.ok, res.explain()
            counts[stages] = res.obligations_checked
        # Doubling the stages must not even triple the obligations
        # (quadratic or worse would explode here).
        assert counts[10] < 3 * counts[5]
        assert counts[20] < 3 * counts[10]

        kernels = []

        class Recording(compositional.FootprintKernel):
            def __init__(self, **kwargs):
                super().__init__(**kwargs)
                kernels.append(self)

        monkeypatch.setattr(compositional, "FootprintKernel", Recording)
        decided, checked = {}, {}
        for stages in (20, 40):
            pa = build_hetero_stack(stages, clients=3, total=3)
            res = check_compositional(build_delivery_certificate(pa))
            assert res.ok, res.explain()
            kernel = kernels[-1]
            decided[stages] = kernel.decided["check_wp"]
            checked[stages] = res.obligations_checked
            assert res.notes["obligations_decided"] == sum(kernel.decided.values())
            assert res.notes["obligations_by_shape"] == sum(
                kernel.by_shape.values()
            )
            assert "answered by shape" in res.explain()
        assert decided[40] == decided[20]
        assert 1.5 * checked[20] < checked[40] < 3 * checked[20]


# ---------------------------------------------------------------------------
# Negative: the refusal contract
# ---------------------------------------------------------------------------


def _failure_text(res) -> str:
    return "\n".join(str(f) for f in res.failures)


# Sabotaged certificates, each built from the small stack and its
# certificate; every one must be refused.


def _interfering_undo(pa, cert):
    """A command that un-does delivery, outside every component."""
    done = pa.system.var_named("done")
    undo = GuardedCommand("undo", done.ref() > 0, [(done, done.ref() - 1)])
    sabotaged = Program(
        pa.system.name + "+undo",
        pa.system.variables,
        pa.system.init,
        [*pa.system.commands, undo],
        fair=sorted(pa.system.fair_names),
    )
    return dataclasses.replace(cert, system=sabotaged)


def _inconsistent_initially(pa, cert):
    x = Var.shared("x", IntRange(0, 3))
    a = Program("A", [x], ExprPredicate(x.ref() == 0), [])
    b = Program("B", [x], ExprPredicate(x.ref() == 1), [])
    p = ExprPredicate(x.ref() == 0)
    return CompositionalCertificate(
        system=a,
        components=(a, b),
        p=p,
        q=p,
        fairness="weak",
        proof=Implication(p, p),
    )


def _negative_split_variable(pa, cert):
    x = Var.shared("neg", IntRange(-1, 2))
    prog = Program("Neg", [x], ExprPredicate(x.ref() == 0), [])
    base = ExprPredicate(x.ref() <= 2)
    goal = ExprPredicate(x.ref() >= -1)
    split = SupportSplit(
        base,
        (x,),
        (Implication(base & ExprPredicate(x.ref() > 0), goal),),
        Implication(base & ExprPredicate(x.ref() == 0), goal),
    )
    return CompositionalCertificate(
        system=prog,
        components=(prog,),
        p=base,
        q=goal,
        fairness="weak",
        proof=split,
    )


def _tampered_branch(pa, cert):
    """A support-split branch rewritten to start from the wrong case."""
    split = _find_support_split(cert.proof)
    assert split is not None
    wrong = ExprPredicate(pa.system.var_named("done").ref() >= 0)
    tampered = SupportSplit(
        split.base,
        split.split_vars,
        (
            Implication(wrong, split.positive_subs[0].rhs()),
            *split.positive_subs[1:],
        ),
        split.zero_sub,
    )
    return dataclasses.replace(cert, proof=tampered)


def _membership_lie(pa, cert):
    """A component dropped from the list."""
    return dataclasses.replace(cert, components=cert.components[:-1])


def _unknown_rule(pa, cert):
    """A synthesized columnar certificate: its levels are support sets
    with no expression form, so no obligation has a footprint."""
    from repro.semantics.synthesis import synthesize_leadsto_proof

    x = Var.shared("t", IntRange(0, 3))
    inc = GuardedCommand("inc", x.ref() < 3, [(x, x.ref() + 1)])
    prog = Program("T", [x], ExprPredicate(x.ref() == 0), [inc], fair=["inc"])
    p, q = ExprPredicate(x.ref() == 0), ExprPredicate(x.ref() == 3)
    proof = synthesize_leadsto_proof(prog, p, q)
    assert proof.support_table is not None
    return CompositionalCertificate(
        system=prog,
        components=(prog,),
        p=p,
        q=q,
        fairness="weak",
        proof=proof,
    )


SABOTAGED = {
    "interfering-undo": _interfering_undo,
    "inconsistent-initially": _inconsistent_initially,
    "negative-split-variable": _negative_split_variable,
    "tampered-branch": _tampered_branch,
    "membership-lie": _membership_lie,
    "unknown-rule": _unknown_rule,
}


# ---------------------------------------------------------------------------
# One walk, two domains: the footprint domain against the full space
# ---------------------------------------------------------------------------


def _transient_basis(pa, cert):
    """A bare transient basis: ``transient`` is footprint-local."""
    from repro.core.rules import TransientBasis

    x = Var.shared("t", IntRange(0, 1))
    flip = GuardedCommand("flip", x.ref() == 0, [(x, 1)])
    prog = Program("T", [x], ExprPredicate(x.ref() == 0), [flip], fair=["flip"])
    node = TransientBasis(ExprPredicate(x.ref() == 0))
    return CompositionalCertificate(
        system=prog,
        components=(prog,),
        p=node.lhs(),
        q=node.rhs(),
        fairness="weak",
        proof=node,
    )


def _frame_without_entailment(pa, cert):
    """``x > 0 next x > 5`` where the one command writes only ``y``: it
    keeps ``x = 1``, so the frame rule must not skip it (``p ⇏ q``)."""
    from repro.core.predicates import TRUE
    from repro.core.rules import PSP

    x = Var.shared("x", IntRange(0, 9))
    y = Var.shared("y", IntRange(0, 3))
    c = GuardedCommand("c", y.ref() < 3, [(y, y.ref() + 1)])
    prog = Program("F", [x, y], ExprPredicate(x.ref() == 0), [c], fair=["c"])
    psp = PSP(
        Implication(TRUE, TRUE),
        s=ExprPredicate(x.ref() > 0),
        t=ExprPredicate(x.ref() > 5),
    )
    return CompositionalCertificate(
        system=prog,
        components=(prog,),
        p=psp.lhs(),
        q=psp.rhs(),
        fairness="weak",
        proof=psp,
    )


def _multi_branch_helpful(pa, cert):
    """A strong-ensures whose helpful command has two branches, so its
    enabledness has no guard to name: refused on every domain."""
    from repro.core.commands import AltCommand
    from repro.core.compositional import StrongEnsures

    x = Var.shared("x", IntRange(0, 3))
    c = AltCommand("c", [(x.ref() < 3, [(x, x.ref() + 1)]), (x.ref() == 3, [(x, 3)])])
    prog = Program("G", [x], ExprPredicate(x.ref() == 0), [c], fair=["c"])
    p, q = ExprPredicate(x.ref() == 2), ExprPredicate(x.ref() == 3)
    rho = p & ~q
    node = StrongEnsures(p, q, helpful="c", recurrence=Implication(rho, q | rho))
    return CompositionalCertificate(
        system=prog,
        components=(prog,),
        p=p,
        q=q,
        fairness="strong",
        proof=node,
    )


DOMAIN_CASES = {
    "transient-basis": _transient_basis,
    "frame-without-entailment": _frame_without_entailment,
    "multi-branch-helpful": _multi_branch_helpful,
    **SABOTAGED,
}

#: Cases where only the compositional check fails: the fault lies in a
#: side condition of the composition, outside the rule tree, or the
#: footprint domain refuses what the full space decides.
_COMPOSITIONAL_ONLY = {"inconsistent-initially", "membership-lie", "unknown-rule"}


class TestOneWalkTwoDomains:
    @pytest.mark.parametrize(
        "name", ["small-stack", "stack-2", "stack-3", *DOMAIN_CASES]
    )
    def test_full_space_and_footprint_agree(self, name, small_stack):
        """The rule tree walked on the full space (the dense oracle) and
        the compositional check agree on ``ok``."""
        from repro.semantics.domain import FullSpace

        if name == "small-stack":
            cert = small_stack[1]
        elif name.startswith("stack-"):
            cert = _differential_case(name, small_stack)
        else:
            cert = DOMAIN_CASES[name](*small_stack)
        dense = cert.proof.check_on(FullSpace(cert.system))
        res = check_compositional(cert, check_components=False)
        if name in _COMPOSITIONAL_ONLY:
            assert dense.ok, dense.explain()
            assert not res.ok
        else:
            assert res.ok == dense.ok, f"{res.explain()}\n{dense.explain()}"
        if name == "multi-branch-helpful":
            for out in (dense, res):
                assert "refused" in _failure_text(out)

    def test_frame_rule_needs_the_entailment(self, small_stack):
        """The frame rule skips a command only once ``p ⇒ q`` holds."""
        res = check_compositional(
            _frame_without_entailment(*small_stack), check_components=False
        )
        assert not res.ok
        assert res.frame_skips == 0
        assert "{x=1, y=0}" in _failure_text(res)


class TestRefusals:
    def test_interfering_command_fails_the_check(self, small_stack):
        """A command that writes a relevant variable out from under the
        proof (un-does delivery) must break the wp obligations."""
        bad = _interfering_undo(*small_stack)
        res = check_compositional(bad, check_components=False)
        assert not res.ok
        # The interference is caught by a wp obligation naming the
        # command, and the membership check flags the unlisted command.
        text = _failure_text(res)
        assert "undo" in text
        assert any(f.path == "membership" for f in res.failures)

    def test_inconsistent_initially_conjunction_refused(self, small_stack):
        res = check_compositional(_inconsistent_initially(*small_stack))
        assert not res.ok
        assert any(f.path == "initially" for f in res.failures)
        assert "unsatisfiable" in _failure_text(res)

    def test_initially_without_expression_form_refused(self):
        """An ``initially`` with no expression form leaves the
        satisfiability of the conjunction undecided: the check refuses
        and ``verify`` answers UNKNOWN, it never raises."""
        from repro.api import verify
        from repro.core.predicates import FnPredicate

        x = Var.shared("x", IntRange(0, 3))
        inc = GuardedCommand("inc", x.ref() < 3, [(x, x.ref() + 1)])
        init = FnPredicate(lambda s: s[x] == 0, "x is zero")
        prog = Program("F", [x], init, [inc], fair=["inc"])
        p = ExprPredicate(x.ref() == 0)
        cert = CompositionalCertificate(
            system=prog,
            components=(prog,),
            p=p,
            q=p,
            fairness="weak",
            proof=Implication(p, p),
        )
        res = check_compositional(cert)
        assert not res.ok
        assert [f.path for f in res.failures] == ["initially"]
        assert "refused" in _failure_text(res)
        assert "x is zero" in _failure_text(res)
        assert verify(None, cert).holds is None

    def test_broken_support_split_side_condition(self, small_stack):
        """A split variable whose domain admits negatives makes the case
        split non-exhaustive; the kernel must refuse, not assume."""
        res = check_compositional(_negative_split_variable(*small_stack))
        assert not res.ok
        assert "may be negative" in _failure_text(res)

    def test_tampered_branch_shape_fails(self, small_stack):
        """Rewriting a support-split branch to start from the wrong case
        must fail the branch-shape obligation."""
        bad = _tampered_branch(*small_stack)
        res = check_compositional(bad, check_components=False)
        assert not res.ok
        text = _failure_text(res)
        assert "support-split branch 0" in text or "conclusion" in text

    def test_membership_lie_fails(self, small_stack):
        """Dropping a component from the list must fail membership (its
        commands are in the system but unaccounted for)."""
        bad = _membership_lie(*small_stack)
        res = check_compositional(bad, check_components=False)
        assert not res.ok
        assert any(f.path == "membership" for f in res.failures)

    def test_unknown_rule_refused(self, small_stack):
        """A rule the compositional kernel has no local argument for is
        refused outright (never silently accepted)."""
        res = check_compositional(_unknown_rule(*small_stack))
        assert not res.ok
        assert "refused" in _failure_text(res)


# ---------------------------------------------------------------------------
# Decisions by shape: memo hits against fresh kernels and the unmemoized run
# ---------------------------------------------------------------------------


def _differential_case(name, small_stack):
    if name.startswith("stack-"):
        pa = build_hetero_stack(int(name[len("stack-") :]))
        return build_delivery_certificate(pa)
    return SABOTAGED[name](*small_stack)


def _run_record(cert) -> dict:
    res = check_compositional(cert, check_components=False)
    return {
        "ok": res.ok,
        "failures": [(f.path, f.message) for f in res.failures],
        "nodes_checked": res.nodes_checked,
        "obligations_checked": res.obligations_checked,
        "frame_skips": res.frame_skips,
        "footprint_evaluations": res.footprint_evaluations,
    }


class TestShapeMemoDifferential:
    @pytest.mark.parametrize("name", ["stack-3", "stack-8", "stack-20", *SABOTAGED])
    def test_memo_hits_match_fresh_kernels_and_unmemoized_run(
        self, name, small_stack, monkeypatch
    ):
        """Every memo hit is re-decided on a fresh kernel and must give
        the same ``ok`` (and, failing, the same message); the failure
        list and counters equal, byte for byte, a run with the memo
        bypassed."""
        from repro.semantics.obligations import FootprintKernel

        cert = _differential_case(name, small_stack)
        hits = []
        with monkeypatch.context() as m:
            for entry in ("check_wp", "entails"):
                m.setattr(FootprintKernel, entry, _rechecked(entry, hits))
            memo = _run_record(cert)
        with monkeypatch.context() as m:
            m.setattr(FootprintKernel, "_shape", lambda *a, **k: None)
            unmemoized = _run_record(cert)
        assert memo == unmemoized
        if name in ("stack-8", "stack-20", "interfering-undo"):
            assert hits, "the case should answer some obligations by shape"
        if name == "interfering-undo":
            assert not all(hits), "failing hits should be exercised"


def _rechecked(entry, hits):
    """``FootprintKernel.<entry>`` that re-decides every memo hit on a
    fresh kernel, asserts the same verdict, and records its ``ok``."""
    from repro.semantics.obligations import FootprintKernel

    real = getattr(FootprintKernel, entry)

    def wrapped(self, *args):
        before = sum(self.by_shape.values())
        res = real(self, *args)
        if sum(self.by_shape.values()) > before:
            fresh = real(FootprintKernel(), *args)
            assert res.ok == fresh.ok
            if not res.ok:
                assert res.message == fresh.message
            hits.append(res.ok)
        return res

    return wrapped


def _find_support_split(node):
    if isinstance(node, SupportSplit):
        return node
    for child in getattr(node, "subs", ()) or ():
        found = _find_support_split(child)
        if found is not None:
            return found
    for attr in ("left", "right", "sub", "recurrence"):
        child = getattr(node, attr, None)
        if child is not None:
            found = _find_support_split(child)
            if found is not None:
                return found
    return None
