"""Each question resolves its evaluation domain once.

A judgment is a function of a domain (:mod:`repro.semantics.domain`).
A public checker, a proof check and the batched certificate check each
resolve that domain once, through
:func:`~repro.semantics.domain.domain_for`, and decide every obligation
on it.  These tests count the resolutions, and pin the path that used to
drop the caller's ``subspace=``: a certificate synthesized on an explicit
reachable subspace is checked on that subspace, never on the full space.
"""

from __future__ import annotations

import sys

import pytest

import repro.semantics.domain as domain_mod
from repro.api import verify
from repro.core.predicates import TRUE
from repro.core.proofs import InitLeaf, InitLift
from repro.core.rules import Implication, MetricInduction, Transitivity
from repro.dsl import parse_program, parse_property
from repro.gen.fuzz import fuzz_case, run_differential
from repro.semantics.checker import (
    check_init,
    check_invariant,
    check_next,
    check_stable,
    check_transient,
    check_validity,
)
from repro.semantics.sparse import reachable_subspace
from repro.semantics.strong_fairness import check_transient_strong
from repro.semantics.synthesis import (
    check_certificate_batched,
    synthesize_leadsto_proof,
)
from repro.service.protocol import normalize_request
from repro.service.worker import handle_request
from repro.systems.pipeline import build_pipeline_system

LADDER = """program Ladder
declare shared x : int[0..5]
initially x = 0
assign
  fair up: x < 5 -> x := x + 1
end"""

STALLED = """program Stalled
declare shared x : int[0..4]
initially x = 0
assign
  fair up: x < 2 -> x := x + 1
end"""


CHECKS = [
    (check_validity, ("x = 5", "x >= 5")),
    (check_init, ("x = 0",)),
    (check_next, ("x = 2", "x >= 2")),
    (check_stable, ("x >= 2",)),
    (check_transient, ("x = 2",)),
    (check_transient_strong, ("x = 2",)),
    (check_invariant, ("x >= 0",)),
]


@pytest.fixture
def resolutions(monkeypatch):
    """Count ``domain_for`` calls through every binding of it."""
    calls: list[str] = []
    original = domain_mod.domain_for

    def counting(program, op, **kwargs):
        calls.append(op)
        return original(program, op, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            if getattr(module, "domain_for", None) is original:
                monkeypatch.setattr(module, "domain_for", counting)
    return calls


def _ladder():
    program = parse_program(LADDER)
    prop = parse_property("x = 0 ~> x = 5", program)
    return program, prop


class TestOneResolutionPerQuestion:
    def test_proof_check_of_the_ladder(self, resolutions):
        program, prop = _ladder()
        proof = synthesize_leadsto_proof(program, prop.p, prop.q)
        assert isinstance(proof, MetricInduction) and len(proof.levels) == 5
        resolutions.clear()
        result = proof.check(program)
        assert result.ok and result.obligations_checked == 51
        assert len(resolutions) == 1

    @pytest.mark.parametrize(
        "check, args", CHECKS, ids=[check.__name__ for check, _ in CHECKS]
    )
    def test_public_checkers(self, resolutions, check, args):
        program = parse_program(LADDER)
        preds = [parse_property(f"invariant {a}", program).p for a in args]
        assert check(program, *preds).holds
        assert len(resolutions) == 1

    def test_batched_path(self, resolutions):
        program, prop = _ladder()
        proof = synthesize_leadsto_proof(program, prop.p, prop.q)
        resolutions.clear()
        result = check_certificate_batched(proof, program)
        assert result.mode == "batched" and result.ok
        assert len(resolutions) == 1

    def test_per_level_path(self, resolutions):
        program, prop = _ladder()
        ladder = synthesize_leadsto_proof(program, prop.p, prop.q)
        proof = Transitivity(ladder, Implication(prop.q, prop.q))
        resolutions.clear()
        result = check_certificate_batched(proof, program)
        assert result.mode == "per-level" and result.ok
        assert result.obligations_checked == 53
        assert len(resolutions) == 1


class TestExplicitSubspaceIsHonoured:
    """``x = 4`` is unreachable, so ``x = 4 ~> x = 0`` holds on the
    reachable subspace, and its certificate is the ``Implication``
    shortcut — valid on the subspace, invalid on the full space."""

    def test_per_level_walk_uses_the_subspace(self):
        program = parse_program(STALLED)
        prop = parse_property("x = 4 ~> x = 0", program)
        sub = reachable_subspace(program)
        proof = synthesize_leadsto_proof(program, prop.p, prop.q, subspace=sub)
        assert isinstance(proof, Implication)
        result = check_certificate_batched(proof, program, subspace=sub)
        assert result.mode == "per-level" and result.ok
        assert not proof.check(program).ok  # the full space's answer

    def test_verify_sparse_prove(self):
        program = parse_program(STALLED)
        prop = parse_property("x = 4 ~> x = 0", program)
        verdict = verify(program, prop, tier="sparse", prove=True)
        assert verdict.holds is True and verdict.tier == "sparse"
        assert isinstance(verdict.certificate, Implication)

    def test_service_sparse_prove(self):
        request = normalize_request(
            {
                "program": STALLED,
                "property": "x = 4 ~> x = 0",
                "tier": "sparse",
                "prove": True,
            }
        )
        payload = handle_request(request, None)
        assert payload["status"] == "ok", payload
        assert payload["holds"] is True and payload["certified"] is True


def test_init_lift_beyond_dense_capacity():
    """The lift's side condition (system initially ⇒ component initially)
    is decided on the proof's domain, which holds every initial state: no
    full-space mask of the 1.8e13-state system."""
    pipeline = build_pipeline_system(20, total=3)
    proof = InitLift(pipeline.components[0], InitLeaf(TRUE))
    assert proof.check(pipeline.system).ok


@pytest.mark.parametrize("seed", [1, 15, 18, 24, 45])
def test_fuzz_checks_sparse_certificates_on_their_subspace(seed):
    """Fuzz cases whose sparse certificate is an ``Implication`` shortcut
    valid only on the reachable subspace: the ``certificate-sparse`` row
    checks it there, batched and per level alike."""
    case = fuzz_case(seed)
    report = run_differential(case.program, case.p, case.q)
    rows = [c for c in report.checks if c.name == "certificate-sparse"]
    assert len(rows) == 1 and rows[0].agreed, report.describe()
