"""The unified ``verify()`` facade and the :class:`Verdict` contract.

Covers tier routing (auto/dense/sparse/compositional), the three-valued
``holds``, budget degradation to ``partial`` (``verify`` is the only entry
point that takes a ``budget``, so the only one that answers UNKNOWN), the
fairness each question is asked under, the :class:`Verdict` contract, and
the ``subspace=`` keyword shared by the public checkers, which report to
the recorder ``obs.use_recorder`` installs.
"""

from __future__ import annotations

import pytest

from repro import Verdict, Witness, verify
from repro.core.properties import LeadsTo
from repro.errors import CapacityError, PropertyError
from repro.semantics.budget import Budget
from repro.systems.allocator import build_allocator_system
from repro.systems.compose_proof import (
    build_delivery_certificate,
    build_hetero_stack,
)
from repro.systems.product import build_pipeline_allocator


#: ``x // y`` behind the guard ``y != 0``: a partial right-hand side.
PARTIAL_RHS = """program D
declare
  shared x : int[0..4];
  shared y : int[0..2]
initially x = 4 /\\ y = 2
assign
  fair half: y != 0 -> x := x // y;
  fair dec: y > 0 /\\ x = 1 -> y := y - 1
end
"""

#: Reaches x = 2 from its initial state, but not from x = 3 or x = 4.
UNREACHABLE_STUCK = """program B
declare shared x : int[0..4]
initially x = 0
assign
  fair up: x < 2 -> x := x + 1
end
"""


@pytest.fixture(scope="module")
def alloc():
    return build_allocator_system(2, total=2)


class TestRouting:
    def test_auto_dense(self, alloc):
        v = verify(alloc.system, alloc.token_available())
        assert v.holds is True
        assert v.tier == "dense"
        assert bool(v) is True

    def test_forced_sparse(self, alloc):
        v = verify(alloc.system, alloc.token_available(), tier="sparse")
        assert v.holds is True
        assert v.tier == "sparse"

    def test_auto_sparse_above_threshold(self):
        pa = build_pipeline_allocator(8)
        v = verify(pa.system, pa.delivery(), fairness="strong")
        assert v.holds is True
        assert v.tier == "sparse"

    def test_sparse_invariant_names_its_tier(self):
        # 10^7 encoded states route to the sparse tier; an invariant that
        # holds there must say so, like its init and stable parts.
        from repro.dsl import parse_program, parse_property

        n = 7
        decl = ";\n  ".join(f"shared x{k} : int[0..9]" for k in range(n))
        init = " /\\ ".join(f"x{k} = 0" for k in range(n))
        prog = parse_program(
            f"program B\ndeclare\n  {decl}\ninitially {init}\nassign\n"
            "  fair a: x0 < 3 -> x0 := x0 + 1;\n"
            "  b: x1 = 5 -> x0 := 9\n"
            "end\n"
        )
        for text in ("init x0 <= 3", "stable x0 <= 3", "invariant x0 <= 3"):
            v = verify(prog, parse_property(text, prog))
            assert v.holds is True, text
            assert v.tier == "sparse", text

    def test_guarded_partial_rhs_decides_on_both_tiers(self):
        from repro.dsl import parse_program, parse_property

        prog = parse_program(PARTIAL_RHS)
        prop = parse_property("true ~> x <= 1", prog)
        assert verify(prog, prop).holds is False  # stuck at y = 0, x >= 2
        assert verify(prog, prop, tier="sparse").holds is True

    def test_dense_refused_on_sparse_space(self):
        pa = build_pipeline_allocator(16)
        with pytest.raises(CapacityError, match="tier='dense' refused"):
            verify(pa.system, pa.delivery(), tier="dense")

    def test_fairness_selects_the_checker(self):
        pa = build_pipeline_allocator(4, clients=2, total=2)
        weak = verify(pa.system, pa.delivery(), fairness="weak")
        strong = verify(pa.system, pa.delivery(), fairness="strong")
        assert weak.holds is False
        assert strong.holds is True
        assert weak.witness.state is not None

    def test_bare_predicate_is_reachable_invariant(self, alloc):
        v = verify(alloc.system, alloc.conservation_predicate())
        assert v.holds is True
        assert v.metrics["kind"] == "reachable-invariant"

    def test_generic_property_delegates(self, alloc):
        from repro.core.properties import Stable

        v = verify(alloc.system, Stable(alloc.conservation_predicate()))
        assert v.holds is True

    def test_forced_sparse_refuses_all_state_properties(self, alloc):
        """``invariant p`` is ``init p /\\ stable p``: like its parts it
        quantifies over all states, so the explored subspace cannot
        decide it and ``tier="sparse"`` refuses it."""
        from repro.core.properties import Init, Invariant, Stable

        pred = alloc.conservation_predicate()
        for prop in (Init(pred), Stable(pred), Invariant(pred)):
            with pytest.raises(PropertyError, match="quantify over all states"):
                verify(alloc.system, prop, tier="sparse")

    def test_unknown_tier_and_fairness_rejected(self, alloc):
        with pytest.raises(PropertyError, match="tier"):
            verify(alloc.system, alloc.token_available(), tier="warp")
        with pytest.raises(PropertyError, match="fairness"):
            verify(alloc.system, alloc.token_available(), fairness="none")

    def test_non_property_rejected(self, alloc):
        with pytest.raises(PropertyError, match="not a property"):
            verify(alloc.system, 42)


class TestProveAndBudget:
    def test_prove_attaches_checked_certificate(self, alloc):
        v = verify(alloc.system, alloc.token_available(), prove=True)
        assert v.holds is True
        assert v.certificate is not None
        assert v.certificate.check(alloc.system).ok

    def test_forced_sparse_prove_checks_on_the_subspace(self):
        # The certificate is synthesized on the explored subspace, so its
        # kernel check must run there too: on the full space x = 3 never
        # reaches x = 2.
        from repro.dsl import parse_program, parse_property

        prog = parse_program(UNREACHABLE_STUCK)
        prop = parse_property("true ~> x = 2", prog)
        v = verify(prog, prop, tier="sparse", prove=True)
        assert v.holds is True
        assert v.tier == "sparse"
        assert v.certificate is not None

    def test_budget_exhaustion_degrades_to_partial(self):
        pa = build_pipeline_allocator(8)
        v = verify(
            pa.system, pa.delivery(), tier="sparse", budget=Budget(node_budget=5)
        )
        assert v.holds is None
        assert v.partial is not None
        assert v.partial.status == "unknown"
        with pytest.raises(TypeError, match="no truth value"):
            bool(v)

    def test_recorder_keyword(self, alloc):
        from repro import obs

        rec = obs.MetricsRecorder()
        with obs.use_recorder(rec):
            v = verify(alloc.system, alloc.token_available())
        assert v.holds is True
        manifest = obs.build_manifest(rec)
        assert manifest["phases"] or manifest["counters"]


class TestCompositionalTier:
    @pytest.fixture(scope="class")
    def stack(self):
        pa = build_hetero_stack(3, clients=2, total=2)
        return pa, build_delivery_certificate(pa)

    def test_certificate_as_property(self, stack):
        pa, cert = stack
        v = verify(None, cert)
        assert v.holds is True
        assert v.tier == "compositional"
        assert v.certificate is cert
        assert v.metrics["frame_skips"] > 0

    def test_missing_certificate_refused(self, stack):
        pa, _ = stack
        with pytest.raises(PropertyError, match="CompositionalCertificate"):
            verify(pa.system, LeadsTo(cert_p := pa.delivery().p, cert_p),
                   tier="compositional")

    def test_wrong_system_refused(self, stack):
        pa, cert = stack
        other = build_hetero_stack(3, clients=2, total=2)
        with pytest.raises(PropertyError, match="different composed system"):
            verify(other.system, cert)

    def test_matches_explored_oracle(self, stack):
        """The acceptance differential: compositional == explored."""
        pa, cert = stack
        comp = verify(None, cert)
        explored = verify(pa.system, LeadsTo(cert.p, cert.q), fairness="strong")
        assert comp.holds is explored.holds is True


class TestVerdictShims:
    def _verdict(self):
        return Verdict(
            holds=True,
            tier="dense",
            witness=Witness({"state": "s0", "violations": 0}),
            metrics={"kind": "leadsto", "subject": "p ~> q"},
        )

    def test_witness_is_a_clean_mapping(self):
        import warnings

        v = self._verdict()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert v.witness["state"] == "s0"
            assert dict(v.witness) == {"state": "s0", "violations": 0}
            assert len(v.witness) == 2
            assert v.witness.state == "s0"

    def test_verdict_is_frozen(self):
        v = self._verdict()
        with pytest.raises(AttributeError):
            v.holds = False

    def test_explain_states_the_status(self):
        assert "HOLDS" in self._verdict().explain()
        assert "UNKNOWN" in Verdict(holds=None, tier="sparse").explain()


class TestSignatureNormalization:
    """The public checkers share ``subspace=``; only ``verify`` takes a
    ``budget``; telemetry goes to the recorder installed with
    ``obs.use_recorder``."""

    def test_only_verify_takes_a_budget(self):
        import inspect

        from repro.semantics.checker import check_reachable_invariant
        from repro.semantics.leadsto import check_leadsto, leadsto_judgment
        from repro.semantics.strong_fairness import check_leadsto_strong
        from repro.semantics.synthesis import synthesize_leadsto_proof

        normalized = (
            check_leadsto,
            check_leadsto_strong,
            check_reachable_invariant,
            synthesize_leadsto_proof,
        )
        for fn in (verify, leadsto_judgment, *normalized):
            params = inspect.signature(fn).parameters
            assert ("budget" in params) is (fn is verify), fn.__name__
        for fn in normalized:
            assert "subspace" in inspect.signature(fn).parameters, fn.__name__
        assert "subspace" not in inspect.signature(verify).parameters

    def test_recorder_keyword_routes_through_obs(self, alloc):
        from repro import obs
        from repro.semantics.leadsto import check_leadsto

        prop = alloc.token_available()
        rec = obs.MetricsRecorder()
        with obs.use_recorder(rec):
            res = check_leadsto(alloc.system, prop.p, prop.q)
        assert res.holds
        # The recorder really observed the check.
        manifest = obs.build_manifest(rec)
        assert manifest["phases"] or manifest["counters"]


def _repro_a(n: int) -> str:
    """Repro A: ``n`` ten-valued variables, one fair command on ``x0``
    and one unfair command that jumps from ``x1 = 5``; ``n = 7`` gives
    10^7 encoded states, which route sparse."""
    decl = ";\n  ".join(f"shared x{k} : int[0..9]" for k in range(n))
    init = " /\\ ".join(f"x{k} = 0" for k in range(n))
    return (
        f"program B\ndeclare\n  {decl}\ninitially {init}\nassign\n"
        "  fair a: x0 < 3 -> x0 := x0 + 1;\n"
        "  b: x1 = 5 -> x0 := 9\n"
        "end\n"
    )


#: One question per property kind, and the ``kind`` its verdict names.
QUESTIONS = [
    ("init x0 <= 3", "init"),
    ("x0 <= 3 next x0 <= 3", "next"),
    ("stable x0 <= 3", "stable"),
    ("transient x0 = 1", "transient"),
    ("invariant x0 <= 3", "invariant"),
    ("true ~> x0 = 3", "leadsto"),
]


class TestBudgetHoldsForEveryQuestion:
    """A budget bounds the exploration of every property kind, and the
    partial verdict names the question; the service answers the same."""

    @pytest.mark.parametrize("text, kind", QUESTIONS)
    def test_budget_gives_a_partial_naming_the_question(self, text, kind):
        from repro.dsl import parse_program, parse_property

        program = parse_program(_repro_a(7))
        prop = parse_property(text, program)
        v = verify(program, prop, budget=Budget(max_levels=1))
        assert v.holds is None, v.explain()
        assert v.partial is not None and v.partial.reason == "level-budget"
        assert (v.partial.kind, v.partial.subject) == (kind, prop.describe())
        assert (v.metrics["kind"], v.metrics["subject"]) == (kind, prop.describe())

    def test_bare_predicate(self):
        from repro.dsl import parse_program, parse_property

        program = parse_program(_repro_a(7))
        pred = parse_property("invariant x0 <= 3", program).p
        v = verify(program, pred, budget=Budget(max_levels=1))
        assert v.holds is None
        assert v.partial.kind == "reachable-invariant"
        assert v.partial.subject == f"reachable-invariant {pred.describe()}"

    def test_strong_leadsto_names_its_fairness(self):
        from repro.dsl import parse_program, parse_property

        program = parse_program(_repro_a(7))
        prop = parse_property("true ~> x0 = 3", program)
        v = verify(program, prop, fairness="strong", budget=Budget(max_levels=1))
        assert v.holds is None
        assert v.partial.kind == "leadsto-strong"
        assert v.partial.subject == "true ~>[strong] x0 = 3"

    @pytest.mark.parametrize("text, kind", QUESTIONS)
    def test_service_answers_what_verify_answers(self, text, kind):
        from repro.dsl import parse_program, parse_property
        from repro.service.protocol import normalize_request
        from repro.service.worker import handle_request

        source = _repro_a(7)
        program = parse_program(source)
        v = verify(program, parse_property(text, program), budget=Budget(deadline=0))
        payload = handle_request(
            normalize_request({"program": source, "property": text, "deadline": 0}),
            None,
        )
        assert v.holds is None and v.partial.reason == "deadline"
        assert payload["status"] == "unknown", payload
        assert payload["reason"] == "deadline"
        assert payload["kind"] == v.partial.kind == kind
        assert payload["tier"] == v.tier == "sparse"


#: Weak fairness can starve ``inc`` by scheduling it only while ``b`` is
#: false; strong fairness cannot, so ``transient x = 0`` and
#: ``true ~> x = 3`` hold only under strong fairness.
TOGGLE_INC = """program Gap
declare
  shared x : int[0..3];
  shared b : bool
initially x = 0
assign
  fair toggle: b := ~b;
  fair inc: b /\\ x < 3 -> x := x + 1
end
"""


class TestStrongFairnessQuestions:
    """``fairness="strong"`` asks the strong question or refuses: it
    never answers the weak one."""

    def test_transient_is_decided_under_strong_fairness(self):
        from repro.dsl import parse_program, parse_property
        from repro.semantics.strong_fairness import check_transient_strong

        program = parse_program(TOGGLE_INC)
        prop = parse_property("transient x = 0", program)
        strong = verify(program, prop, fairness="strong")
        direct = check_transient_strong(program, prop.p)
        assert strong.holds is direct.holds is True
        assert strong.metrics["kind"] == direct.kind == "transient-strong"
        assert strong.metrics["subject"] == direct.subject
        assert strong.metrics["subject"] == "transient[strong] x = 0"
        assert verify(program, prop).holds is False

    def test_budget_names_the_strong_transient_question(self):
        from repro.dsl import parse_program, parse_property

        program = parse_program(_repro_a(7))
        prop = parse_property("transient x0 = 1", program)
        v = verify(program, prop, fairness="strong", budget=Budget(max_levels=1))
        assert v.holds is None
        assert v.partial.kind == "transient-strong"
        assert v.partial.subject == "transient[strong] x0 = 1"

    def test_family_is_refused_before_any_domain(self, monkeypatch):
        import repro.semantics.domain as domain_mod
        from repro.core.properties import PropertyFamily
        from repro.dsl import parse_program, parse_property

        program = parse_program(TOGGLE_INC)
        family = PropertyFamily("fam", [parse_property("true ~> x = 3", program)])
        assert verify(program, family.members[0], fairness="strong").holds is True

        def no_domain(*args, **kwargs):
            raise AssertionError("a domain was resolved")

        monkeypatch.setattr(domain_mod, "domain_for", no_domain)
        with pytest.raises(PropertyError, match="property families"):
            verify(program, family, fairness="strong")


class TestRefusalTexts:
    def test_dense_refusal(self):
        from repro.dsl import parse_program, parse_property

        program = parse_program(_repro_a(7))
        with pytest.raises(CapacityError) as info:
            verify(program, parse_property("stable x0 <= 3", program), tier="dense")
        assert str(info.value) == (
            "tier='dense' refused: 10000000 encoded states routes sparse; "
            "use tier='auto' or tier='sparse'"
        )

    def test_sparse_refusal_of_all_state_properties(self, alloc):
        from repro.core.properties import Transient

        with pytest.raises(PropertyError) as info:
            verify(
                alloc.system, Transient(alloc.conservation_predicate()), tier="sparse"
            )
        assert str(info.value) == (
            "tier='sparse' is not supported for Transient properties (they "
            "quantify over all states)"
        )


class TestCLI:
    def test_compose50_scenario(self, capsys):
        from repro.cli import main

        code = main(
            "scenario compose50 --stages 5 --clients 2 --total 2 --prove".split()
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "product states explored: 0" in out
        assert "component lemmas" in out
        assert "HOLDS [compositional]" in out

    def test_check_routes_through_verify(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "toy.unity"
        f.write_text(
            "program Toy\n"
            "declare\n  shared x : int[0..3]\n"
            "initially\n  x = 0\n"
            "assign\n  fair inc: x < 3 -> x := x + 1\n"
            "end\n"
        )
        assert main(["check", str(f), "-p", "x = 0 ~> x = 3"]) == 0
        assert "HOLDS [dense]" in capsys.readouterr().out


class TestCheckerEntryPoints:
    """``verify()`` reaches each question's public checker through its
    module attribute at call time, once, with the program first: the
    entry points ``perfbench/workload.py`` wraps to attribute time to the
    checker and analysis layers."""

    @pytest.mark.parametrize(
        "module, name, text, fairness",
        [
            ("checker", "check_invariant", "invariant x <= 2", "weak"),
            ("checker", "check_reachable_invariant", None, "weak"),
            ("leadsto", "check_leadsto", "true ~> x = 2", "weak"),
            ("strong_fairness", "check_leadsto_strong", "true ~> x = 2", "strong"),
        ],
    )
    def test_verify_calls_the_public_checker_once(
        self, monkeypatch, module, name, text, fairness
    ):
        import importlib

        from repro.dsl import parse_program, parse_property

        program = parse_program(UNREACHABLE_STUCK)
        if text is None:  # a bare predicate: the reachable invariant
            prop = parse_property("invariant x <= 2", program).p
        else:
            prop = parse_property(text, program)
        owner = importlib.import_module(f"repro.semantics.{module}")
        original = getattr(owner, name)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
        verdict = verify(program, prop, fairness=fairness)
        assert calls == [program]
        assert verdict.holds is not None
