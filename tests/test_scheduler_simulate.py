"""Tests for repro.semantics.scheduler and repro.semantics.simulate."""

import pytest

from repro.core.commands import GuardedCommand
from repro.core.domains import IntRange
from repro.core.predicates import ExprPredicate
from repro.core.program import Program
from repro.core.variables import Var
from repro.semantics.scheduler import (
    RandomFairScheduler,
    RoundRobinScheduler,
    SequenceScheduler,
)
from repro.semantics.simulate import run_until, simulate

X = Var.shared("x", IntRange(0, 3))


def pred(e):
    return ExprPredicate(e)


def sat_counter():
    inc = GuardedCommand("inc", X.ref() < 3, [(X, X.ref() + 1)])
    return Program("Sat", [X], pred(X.ref() == 0), [inc], fair=["inc"])


class TestSchedulers:
    def test_round_robin_cycles(self):
        p = sat_counter()
        sched = RoundRobinScheduler(p)
        names = [sched.next_command(k).name for k in range(2 * len(p.commands))]
        assert names[: len(p.commands)] == names[len(p.commands):]
        assert set(names) == {c.name for c in p.commands}

    def test_round_robin_always_fair(self):
        p = sat_counter()
        assert RoundRobinScheduler(p).is_fair_for(p.fair_names)

    def test_random_deterministic_by_seed(self):
        p = sat_counter()
        a = RandomFairScheduler(p, seed=5)
        b = RandomFairScheduler(p, seed=5)
        assert [a.next_command(k).name for k in range(20)] == [
            b.next_command(k).name for k in range(20)
        ]

    def test_sequence_replays(self):
        p = sat_counter()
        sched = SequenceScheduler(p, ["inc", "skip"])
        assert [sched.next_command(k).name for k in range(4)] == [
            "inc", "skip", "inc", "skip",
        ]

    def test_sequence_fairness_judgement(self):
        p = sat_counter()
        assert SequenceScheduler(p, ["inc"]).is_fair_for(p.fair_names)
        assert not SequenceScheduler(p, ["skip"]).is_fair_for(p.fair_names)

    def test_sequence_validates_names(self):
        with pytest.raises(Exception):
            SequenceScheduler(sat_counter(), ["nope"])

    def test_sequence_empty_rejected(self):
        with pytest.raises(ValueError):
            SequenceScheduler(sat_counter(), [])


class TestSimulate:
    def test_trace_shape(self):
        trace = simulate(sat_counter(), 5)
        assert len(trace) == 5
        assert len(trace.states) == 6
        assert trace.states[0][X] == 0

    def test_trace_consistency(self):
        p = sat_counter()
        trace = simulate(p, 8)
        for k, name in enumerate(trace.commands):
            cmd = p.command_named(name)
            assert cmd.apply(trace.states[k]) == trace.states[k + 1]

    def test_satisfies_throughout(self):
        trace = simulate(sat_counter(), 10)
        assert trace.satisfies_throughout(pred(X.ref() <= 3))
        assert not trace.satisfies_throughout(pred(X.ref() == 0))

    def test_explicit_start(self):
        p = sat_counter()
        trace = simulate(p, 2, start=p.state(x=2))
        assert trace.states[0][X] == 2

    def test_no_initial_state_rejected(self):
        p = Program("E", [X], pred(X.ref() > 3), [])
        with pytest.raises(ValueError):
            simulate(p, 1)

    def test_run_until_reaches(self):
        p = sat_counter()
        trace, reached = run_until(p, pred(X.ref() == 3))
        assert reached
        assert trace.final[X] == 3

    def test_run_until_goal_at_start(self):
        p = sat_counter()
        trace, reached = run_until(p, pred(X.ref() == 0))
        assert reached and len(trace) == 0

    def test_run_until_gives_up(self):
        p = sat_counter()
        unfair = SequenceScheduler(p, ["skip"])
        trace, reached = run_until(
            p, pred(X.ref() == 3), scheduler=unfair, max_steps=50
        )
        assert not reached
        assert len(trace) == 50

    def test_run_until_callable_goal(self):
        p = sat_counter()
        _, reached = run_until(p, lambda s: s[X] == 1)
        assert reached
