"""Tests for repro.semantics.leadsto: the fair-SCC model checker.

These tests pin the *semantics* of weak fairness: which schedules the
adversary may choose, what ``D`` forces, and how ``skip ∈ C`` interacts
with avoidance.  Several are small enough to reason out by hand; the
integration suite cross-validates against trace simulation.
"""

import numpy as np

from repro.core.commands import GuardedCommand
from repro.core.domains import IntRange
from repro.core.expressions import ite, land, lnot
from repro.core.predicates import ExprPredicate, FALSE, TRUE
from repro.core.program import Program
from repro.core.variables import Var
from repro.semantics.domain import FullSpace
from repro.semantics.leadsto import check_leadsto, fair_analysis

X = Var.shared("x", IntRange(0, 3))
B = Var.boolean("b")


def pred(e):
    return ExprPredicate(e)


def sat_counter(fair=True):
    inc = GuardedCommand("inc", X.ref() < 3, [(X, X.ref() + 1)])
    return Program(
        "Sat", [X], pred(X.ref() == 0), [inc], fair=["inc"] if fair else []
    )


class TestBasics:
    def test_fair_increment_reaches_top(self):
        res = check_leadsto(sat_counter(), TRUE, pred(X.ref() == 3))
        assert res.holds

    def test_unfair_increment_fails(self):
        # With D = ∅ the scheduler may run skip forever.
        res = check_leadsto(sat_counter(fair=False), TRUE, pred(X.ref() == 3))
        assert not res.holds
        assert res.witness["state"][X] == 0

    def test_p_subset_q_trivially_holds(self):
        res = check_leadsto(sat_counter(fair=False), pred(X.ref() == 2), pred(X.ref() >= 2))
        assert res.holds

    def test_false_lhs_vacuous(self):
        assert check_leadsto(sat_counter(fair=False), FALSE, FALSE).holds

    def test_skip_in_D_does_not_help(self):
        inc = GuardedCommand("inc", X.ref() < 3, [(X, X.ref() + 1)])
        p = Program("P", [X], TRUE, [inc], fair=["skip"])
        assert not check_leadsto(p, TRUE, pred(X.ref() == 3)).holds

    def test_reflexive(self):
        q = pred(X.ref() == 1)
        assert check_leadsto(sat_counter(fair=False), q, q).holds


class TestFairnessSubtleties:
    def test_helpful_command_must_be_fair(self):
        """Two commands: a fair spinner and an unfair exit — q avoidable."""
        spin = GuardedCommand("spin", True, [(B, lnot(B.ref()))])
        exit_ = GuardedCommand("exit", True, [(X, 3)])
        p = Program("P", [X, B], TRUE, [spin, exit_], fair=["spin"])
        assert not check_leadsto(p, pred(X.ref() == 0), pred(X.ref() == 3)).holds

    def test_fair_exit_forces_progress_despite_spinner(self):
        """The paper's transient semantics: the fair exit fires eventually
        even while the spinner runs — the classic two-command race."""
        spin = GuardedCommand("spin", True, [(B, lnot(B.ref()))])
        exit_ = GuardedCommand("exit", X.ref() < 3, [(X, 3)])
        p = Program("P", [X, B], TRUE, [spin, exit_], fair=["exit"])
        assert check_leadsto(p, TRUE, pred(X.ref() == 3)).holds

    def test_weak_fairness_counts_vacuous_executions(self):
        """Weak ≠ strong fairness: executing a command whose guard is false
        is a legal no-op that satisfies fairness (§2: commands in D are
        *executed* infinitely often; a false guard means skip).  The
        scheduler can therefore fire ``inc`` only while ``b`` is false and
        never make progress."""
        toggle = GuardedCommand("toggle", True, [(B, lnot(B.ref()))])
        inc = GuardedCommand(
            "inc", land(B.ref(), X.ref() < 3), [(X, X.ref() + 1)]
        )
        p = Program("P", [X, B], TRUE, [toggle, inc], fair=["toggle", "inc"])
        assert not check_leadsto(p, TRUE, pred(X.ref() == 3)).holds

    def test_ladder_of_fair_commands_all_required(self):
        """One fair command per rung: up_k fires unconditionally at its own
        level, so every rung is transient and x climbs to the top."""
        ups = [
            GuardedCommand(f"up{k}", X.ref() == k, [(X, k + 1)])
            for k in range(3)
        ]
        p = Program("L", [X], TRUE, ups, fair=[f"up{k}" for k in range(3)])
        assert check_leadsto(p, TRUE, pred(X.ref() == 3)).holds
        # Dropping any single rung from D breaks the chain.
        for removed in range(3):
            fair = [f"up{k}" for k in range(3) if k != removed]
            p2 = Program("L2", [X], TRUE, ups, fair=fair)
            assert not check_leadsto(p2, TRUE, pred(X.ref() == 3)).holds

    def test_fair_cycle_detected(self):
        """A wrap-around counter under fairness: x=0 recurs, so x ↝ 'stuck
        at 3' must fail — the fair SCC is the whole cycle."""
        inc = GuardedCommand("inc", True, [(X, ite(X.ref() < 3, X.ref() + 1, 0))])
        p = Program("P", [X], TRUE, [inc], fair=["inc"])
        # x=3 is visited infinitely often but x stays there never:
        res = check_leadsto(p, TRUE, pred(X.ref() == 3))
        assert res.holds  # every fair run DOES visit 3
        # ...but "eventually always 3" is different; leads-to to a transient
        # target still holds. The avoidable case is a *disconnected* target:
        dec_only = GuardedCommand("dec", X.ref() > 0, [(X, X.ref() - 1)])
        p2 = Program("P2", [X], TRUE, [dec_only], fair=["dec"])
        res2 = check_leadsto(p2, pred(X.ref() == 0), pred(X.ref() == 3))
        assert not res2.holds

    def test_adversary_may_interleave_any_C_commands(self):
        """Unfair commands may still be scheduled; they can *break* a
        leads-to that would hold without them."""
        inc = GuardedCommand("inc", X.ref() < 3, [(X, X.ref() + 1)])
        reset = GuardedCommand("reset", True, [(X, 0)])
        # Fair inc forces progress, but the adversary can reset forever:
        p = Program("P", [X], TRUE, [inc, reset], fair=["inc"])
        assert not check_leadsto(p, TRUE, pred(X.ref() == 3)).holds


class TestAnalysisInternals:
    def test_analysis_masks_partition(self):
        p = sat_counter()
        analysis = fair_analysis(FullSpace(p), TRUE, pred(X.ref() == 3))
        assert (analysis.q_mask | analysis.notq_mask).all()
        assert not (analysis.q_mask & analysis.notq_mask).any()
        assert not (analysis.avoid_mask & ~analysis.notq_mask).any()

    def test_safe_region_closed(self):
        """No edge leaves the safe region into avoid."""
        from repro.semantics.transition import TransitionSystem

        spin = GuardedCommand("spin", True, [(B, lnot(B.ref()))])
        exit_ = GuardedCommand("exit", X.ref() < 2, [(X, X.ref() + 1)])
        p = Program("P", [X, B], TRUE, [spin, exit_], fair=["exit"])
        analysis = fair_analysis(FullSpace(p), TRUE, pred(X.ref() == 3))
        safe = analysis.safe_mask
        ts = TransitionSystem.for_program(p)
        for _, table in ts.all_tables():
            src = np.flatnonzero(safe)
            assert not analysis.avoid_mask[table[src]].any()

    def test_safe_components_order_is_usable_as_levels(self):
        p = sat_counter()
        analysis = fair_analysis(FullSpace(p), TRUE, pred(X.ref() == 3))
        comps = analysis.safe_components()
        # Emission order: each component's successors lie in q or earlier
        # components.
        seen = analysis.q_mask.copy()
        from repro.semantics.transition import TransitionSystem

        ts = TransitionSystem.for_program(p)
        for _, members in comps:
            member_mask = np.zeros(p.space.size, bool)
            member_mask[members] = True
            for _, table in ts.all_tables():
                succ = table[members]
                assert (seen[succ] | member_mask[succ]).all()
            seen |= member_mask

    def test_counterexample_mentions_fair_scc(self):
        res = check_leadsto(sat_counter(fair=False), TRUE, pred(X.ref() == 3))
        assert not res.holds
        assert res.witness["fair_scc_state"] is not None


class TestCone:
    """The analysis runs on the cone of ``p ∧ ¬q`` only."""

    def test_fair_scc_state_is_reachable_from_the_witness(self):
        # Two fair sinks {0, 1} and {2, 3}; x=2 already sits in the
        # second one, so the diagnostic must name a state of it, not the
        # first fair SCC in emission order (which x=2 cannot reach).
        x = Var.shared("x", IntRange(0, 5))
        rv = x.ref()
        succ = ite(rv == 0, 1, ite(rv == 1, 0, ite(rv == 2, 3, ite(rv == 3, 2, 0))))
        step = GuardedCommand("step", rv != 5, [(x, succ)])
        prog = Program("TwoSinks", [x], TRUE, [step], fair=["step"])
        res = check_leadsto(prog, pred(rv == 2) | pred(rv == 4), FALSE)
        assert not res.holds
        assert res.witness["state"][x] == 2
        assert [s[x] for s in res.witness["confining_path"]] == [2]
        assert res.witness["fair_scc_state"][x] == 2
        assert "settling near" in res.message and "x=2" in res.message

    def test_cone_excludes_states_p_cannot_reach(self):
        # From x=2 the counter only climbs: x=0 and x=1 are ¬q but
        # outside the cone.
        p = sat_counter()
        analysis = fair_analysis(FullSpace(p), pred(X.ref() == 2), pred(X.ref() == 3))
        assert analysis.cone_mask.tolist() == [False, False, True, False]
        assert analysis.cond.count == 1
        whole = fair_analysis(FullSpace(p), TRUE, pred(X.ref() == 3))
        assert whole.cone_mask.tolist() == whole.notq_mask.tolist()

    def test_program_with_only_skip(self):
        # No table to walk: the cone is p ∧ ¬q itself, and skip is a
        # fair-less self-loop the scheduler may repeat forever.
        p = Program("Idle", [X], TRUE, [], fair=[])
        res = check_leadsto(p, pred(X.ref() == 0), pred(X.ref() == 3))
        assert not res.holds
        assert res.witness["fair_scc_state"][X] == 0

    def test_holds_message_counts_the_cone(self):
        res = check_leadsto(sat_counter(), pred(X.ref() == 2), pred(X.ref() == 3))
        assert res.holds
        assert "all 1 ¬q-states reachable from p reach q" in res.message


def _ladder_program():
    from repro.dsl import parse_program

    return parse_program(
        "program Ladder\n"
        "declare shared x : int[0..4]\n"
        "initially x = 0\n"
        "assign\n"
        "  fair up0: x = 0 -> x := x + 1;\n"
        "  fair up1: x = 1 -> x := x + 1;\n"
        "  fair up2: x = 2 -> x := x + 1;\n"
        "  fair up3: x = 3 -> x := x + 1\n"
        "end\n"
    )


class TestNoUnionCsr:
    """A dense leads-to check or ``prove`` builds no whole-space
    adjacency: it condenses only the cone of ``p ∧ ¬q``, and ``prove``
    condenses it once."""

    def test_dense_check_builds_no_union_csr(self):
        from repro import obs

        prog = _ladder_program()
        rec = obs.MetricsRecorder()
        with obs.use_recorder(rec):
            res = check_leadsto(prog, pred_of(prog, "x = 1"), pred_of(prog, "x = 4"))
        assert res.holds
        # The cone is x = 1, 2, 3; the whole ¬q would add x = 0.
        counters = obs.build_manifest(rec)["counters"]
        assert counters["graph.condensation.components"] == 3

    def test_prove_condenses_once_without_union_csr(self):
        from repro import obs
        from repro.api import verify
        from repro.dsl import parse_property

        for fairness in ("weak", "strong"):
            prog = _ladder_program()
            prop = parse_property("x = 1 ~> x = 4", prog)
            rec = obs.MetricsRecorder()
            with obs.use_recorder(rec):
                verdict = verify(prog, prop, fairness=fairness, prove=True)
            assert verdict.holds and verdict.certificate is not None
            counters = obs.build_manifest(rec)["counters"]
            assert counters["graph.condensation.misses"] == 1, fairness


def pred_of(program, text):
    from repro.dsl import parse_property

    return parse_property(f"{text} ~> {text}", program).p
