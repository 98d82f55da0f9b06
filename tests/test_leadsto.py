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
        analysis = fair_analysis(FullSpace(p), pred(X.ref() == 3))
        assert (analysis.q_mask | analysis.notq_mask).all()
        assert not (analysis.q_mask & analysis.notq_mask).any()
        assert not (analysis.avoid_mask & ~analysis.notq_mask).any()

    def test_safe_region_closed(self):
        """No edge leaves the safe region into avoid."""
        from repro.semantics.transition import TransitionSystem

        spin = GuardedCommand("spin", True, [(B, lnot(B.ref()))])
        exit_ = GuardedCommand("exit", X.ref() < 2, [(X, X.ref() + 1)])
        p = Program("P", [X, B], TRUE, [spin, exit_], fair=["exit"])
        analysis = fair_analysis(FullSpace(p), pred(X.ref() == 3))
        safe = analysis.safe_mask
        ts = TransitionSystem.for_program(p)
        for _, table in ts.all_tables():
            src = np.flatnonzero(safe)
            assert not analysis.avoid_mask[table[src]].any()

    def test_safe_components_order_is_usable_as_levels(self):
        p = sat_counter()
        analysis = fair_analysis(FullSpace(p), pred(X.ref() == 3))
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
