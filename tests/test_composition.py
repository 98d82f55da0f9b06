"""Tests for repro.core.composition: the paper's ``F ∘ G`` and its side
conditions, plus associativity/commutativity and lifting."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.commands import GuardedCommand
from repro.core.composition import (
    can_compose,
    compatibility_report,
    compose,
    compose_all,
    inert_program,
    lifted,
)
from repro.core.domains import IntRange
from repro.core.predicates import ExprPredicate, TRUE
from repro.core.program import Program
from repro.core.variables import Var
from repro.errors import CompositionError
from repro.semantics.transition import TransitionSystem

from tests.conftest import program_pair_strategy

X = Var.shared("x", IntRange(0, 3))
B = Var.boolean("b")
LOC = Var.local("mine", IntRange(0, 1))


def prog(name, variables, init=TRUE, commands=(), fair=()):
    return Program(name, variables, init, list(commands), fair=list(fair))


def inc(name="inc"):
    return GuardedCommand(name, X.ref() < 3, [(X, X.ref() + 1)])


class TestCompatibility:
    def test_disjoint_ok(self):
        f = prog("F", [X])
        g = prog("G", [B])
        assert can_compose(f, g)

    def test_shared_same_domain_ok(self):
        assert can_compose(prog("F", [X]), prog("G", [X]))

    def test_shared_domain_mismatch(self):
        other = Var.shared("x", IntRange(0, 5))
        report = compatibility_report(prog("F", [X]), prog("G", [other]))
        assert not report.ok
        assert "mismatched domains" in report.explain()

    def test_local_collision_rejected(self):
        f = prog("F", [LOC])
        g = prog("G", [Var.shared("mine", IntRange(0, 1))])
        report = compatibility_report(f, g)
        assert not report.ok
        assert "locality" in report.explain()

    def test_local_local_collision_rejected(self):
        f = prog("F", [LOC])
        g = prog("G", [Var.local("mine", IntRange(0, 1))])
        assert not can_compose(f, g)

    def test_inconsistent_inits_rejected(self):
        f = prog("F", [X], init=ExprPredicate(X.ref() == 0))
        g = prog("G", [X], init=ExprPredicate(X.ref() == 1))
        report = compatibility_report(f, g)
        assert not report.ok
        assert "unsatisfiable" in report.explain()

    def test_init_check_can_be_skipped(self):
        f = prog("F", [X], init=ExprPredicate(X.ref() == 0))
        g = prog("G", [X], init=ExprPredicate(X.ref() == 1))
        assert can_compose(f, g, check_init=False)

    def test_same_name_rejected(self):
        assert not can_compose(prog("F", [X]), prog("F", [X]))


class TestComposeSemantics:
    def test_variable_union_order(self):
        c = compose(prog("F", [X]), prog("G", [B, X]))
        assert [v.name for v in c.variables] == ["x", "b"]

    def test_init_conjunction(self):
        f = prog("F", [X], init=ExprPredicate(X.ref() <= 1))
        g = prog("G", [X], init=ExprPredicate(X.ref() >= 1))
        c = compose(f, g)
        assert [s[X] for s in c.initial_states()] == [1]

    def test_command_union_dedups_structural(self):
        # Both components contribute the same body: ONE element of C.
        f = prog("F", [X], commands=[inc("a")])
        g = prog("G", [X], commands=[inc("b")])
        c = compose(f, g)
        non_skip = [cmd for cmd in c.commands if not cmd.is_skip()]
        assert len(non_skip) == 1
        assert non_skip[0].origins >= {"F", "G"}

    def test_name_collision_distinct_bodies_renamed(self):
        f = prog("F", [X], commands=[inc("step")])
        g_cmd = GuardedCommand("step", X.ref() > 0, [(X, X.ref() - 1)])
        g = prog("G", [X], commands=[g_cmd])
        c = compose(f, g)
        names = {cmd.name for cmd in c.commands}
        assert "step" in names and "G.step" in names

    def test_fairness_union(self):
        f = prog("F", [X], commands=[inc("a")], fair=["a"])
        g = prog("G", [B])
        c = compose(f, g)
        assert "a" in c.fair_names

    def test_fairness_inherited_on_dedup(self):
        f = prog("F", [X], commands=[inc("a")])           # not fair in F
        g = prog("G", [X], commands=[inc("b")], fair=["b"])  # fair in G
        c = compose(f, g)
        merged = [cmd for cmd in c.commands if not cmd.is_skip()][0]
        assert merged.name in c.fair_names

    def test_skip_merged_once(self):
        c = compose(prog("F", [X]), prog("G", [B]))
        assert sum(1 for cmd in c.commands if cmd.is_skip()) == 1

    def test_raises_on_incompatible(self):
        with pytest.raises(CompositionError):
            compose(prog("F", [LOC]), prog("G", [Var.local("mine", IntRange(0, 1))]))


class TestAlgebra:
    def _three(self):
        f = prog("F", [X], init=ExprPredicate(X.ref() == 0), commands=[inc("a")], fair=["a"])
        g = prog("G", [X, B], commands=[GuardedCommand("t", True, [(B, ~B.ref())])])
        h = prog("H", [B], init=ExprPredicate(~B.ref()))
        return f, g, h

    @staticmethod
    def _semantics(p):
        """Canonical semantic fingerprint: init set + command body → relation."""
        ts = TransitionSystem.for_program(p)
        bodies = {}
        for cmd in p.commands:
            bodies[cmd.body_key()] = ts.tables[cmd.name]
        return p.initial_mask(), bodies

    def test_commutative_up_to_encoding(self):
        f, g, _ = self._three()
        fg = compose(f, g)
        gf = compose(g, f)
        # Same variable *sets* (order differs → compare as sets + sizes).
        assert set(v.name for v in fg.variables) == set(v.name for v in gf.variables)
        assert fg.space.size == gf.space.size
        assert {c.body_key() for c in fg.commands} == {c.body_key() for c in gf.commands}
        assert fg.initial_mask().sum() == gf.initial_mask().sum()

    def test_associative(self):
        f, g, h = self._three()
        left = compose(compose(f, g), h)
        right = compose(f, compose(g, h))
        assert [v.name for v in left.variables] == [v.name for v in right.variables]
        li, lb = self._semantics(left)
        ri, rb = self._semantics(right)
        assert (li == ri).all()
        assert set(lb) == set(rb)
        for key in lb:
            assert np.array_equal(lb[key], rb[key])

    def test_compose_all_fold(self):
        f, g, h = self._three()
        c = compose_all([f, g, h], name="S")
        assert c.name == "S"
        assert c.space.size == 4 * 2

    def test_compose_all_empty_rejected(self):
        with pytest.raises(CompositionError):
            compose_all([])

    def test_compose_all_singleton(self):
        f, _, _ = self._three()
        assert compose_all([f]) is f


class TestLifting:
    def test_inert_program_changes_nothing(self):
        env = inert_program("Env", [X, B])
        assert len(env.commands) == 1 and env.commands[0].is_skip()
        assert env.initial_mask().all()

    def test_lifted_preserves_behaviour(self):
        f = prog("F", [X], init=ExprPredicate(X.ref() == 0),
                 commands=[inc("a")], fair=["a"])
        lf = lifted(f, [X, B])
        assert [v.name for v in lf.variables] == ["x", "b"]
        assert "a" in lf.fair_names
        # The lifted command leaves b untouched on every state.
        ts = TransitionSystem.for_program(lf)
        table = ts.tables["a"]
        space = lf.space
        for i in range(space.size):
            s, t = space.state_at(i), space.state_at(int(table[i]))
            assert s[B] == t[B]

    def test_lifted_over_program(self):
        f = prog("F", [X])
        system = prog("Sys", [X, B])
        lf = lifted(f, system)
        assert [v.name for v in lf.variables] == ["x", "b"]

    def test_lifted_missing_vars_rejected(self):
        f = prog("F", [X])
        with pytest.raises(CompositionError):
            lifted(f, [B])

    def test_lifted_conflicting_redeclaration_rejected(self):
        f = prog("F", [X])
        other = Var.shared("x", IntRange(0, 9))
        with pytest.raises(CompositionError):
            lifted(f, [other, B])


@settings(max_examples=40, deadline=None)
@given(program_pair_strategy())
def test_random_pairs_compose_and_union_holds(pair):
    """Composition of random compatible pairs: C is the union of the
    components' command sets (structurally) and D the union of fairness."""
    f, g = pair
    c = compose(f, g)
    f_keys = {cmd.body_key() for cmd in f.commands}
    g_keys = {cmd.body_key() for cmd in g.commands}
    c_keys = {cmd.body_key() for cmd in c.commands}
    assert c_keys == f_keys | g_keys
    # Fair bodies are unioned too.
    fair_bodies = {f.command_named(n).body_key() for n in f.fair_names}
    fair_bodies |= {g.command_named(n).body_key() for n in g.fair_names}
    c_fair_bodies = {c.command_named(n).body_key() for n in c.fair_names}
    assert c_fair_bodies == fair_bodies


# ---------------------------------------------------------------------------
# compose_all builds in one pass what the pairwise fold builds
# ---------------------------------------------------------------------------


def _fold(programs, *, name=None, check_init=True):
    """The pairwise left fold of :func:`compose` that compose_all equals."""
    out = programs[0]
    for nxt in programs[1:-1]:
        out = compose(out, nxt, check_init=False)
    out = compose(out, programs[-1], check_init=check_init)
    if name is not None:
        out = Program(
            name, out.variables, out.init, out.commands, fair=sorted(out.fair_names)
        )
    return out


def _identity(p):
    from repro.semantics.sparse.checkpoint import program_digest

    return (
        p.name,
        p.describe(),
        program_digest(p),
        [(c.name, sorted(c.origins)) for c in p.commands],
        sorted(p.fair_names),
    )


def _error(fn):
    with pytest.raises(CompositionError) as info:
        fn()
    return str(info.value)


class TestOnePassComposeAll:
    @pytest.mark.parametrize("stages", [1, 2, 3, 12, 50])
    def test_hetero_stacks_equal_the_fold(self, stages):
        from repro.systems.compose_proof import build_hetero_stack

        components = build_hetero_stack(stages).components
        for name in (None, "Stack"):
            one = compose_all(components, name=name, check_init=False)
            assert _identity(one) == _identity(
                _fold(components, name=name, check_init=False)
            )
        # Reversed order exercises renames and merged bodies differently.
        rev = components[::-1]
        assert _identity(compose_all(rev, check_init=False)) == _identity(
            _fold(rev, check_init=False)
        )

    def test_toy_pairs_equal_the_fold(self):
        from repro.systems.counter import build_counter_system

        for n in (2, 3):
            comps = build_counter_system(n, 2).components
            assert _identity(compose_all(comps, name="S")) == _identity(
                _fold(comps, name="S")
            )
        f, g, h = TestAlgebra()._three()
        for order in ([f, g, h], [h, g, f], [g, f, h]):
            assert _identity(compose_all(order)) == _identity(_fold(order))

    def test_renames_and_merged_bodies_equal_the_fold(self):
        # Same name, different bodies → G.a; same body, other name → one
        # element whose fairness and origins merge.
        f = prog("F", [X], commands=[inc("a")], fair=["a"])
        g = prog("G", [X, B], commands=[GuardedCommand("a", True, [(B, ~B.ref())])])
        h = prog("H", [X], commands=[inc("up")], fair=["up"])
        k = prog(
            "K", [X, B], commands=[GuardedCommand("a", B.ref(), [(X, 0)])], fair=["a"]
        )
        one = compose_all([f, g, h, k], check_init=False)
        assert _identity(one) == _identity(_fold([f, g, h, k], check_init=False))
        assert [c.name for c in one.commands] == ["a", "skip", "G.a", "K.a"]
        assert one.fair_names == {"a", "K.a"}
        assert one.command_named("a").origins == {"F", "H"}
        k2 = prog("K2", [X, B], commands=[GuardedCommand("G.a", B.ref(), [(X, 1)])])
        g2 = prog("G", [X], commands=[GuardedCommand("a", X.ref() > 0, [(X, 0)])])
        bad = [f, g, k2, g2]
        assert _error(lambda: compose_all(bad, check_init=False)) == _error(
            lambda: _fold(bad, check_init=False)
        )

    def test_error_messages_are_byte_identical(self):
        a = prog("A", [X])
        b = prog("B", [B])
        cases = {
            "name clash": [a, b, prog("(A||B)", [X])],
            "locality": [a, b, prog("C", [Var.local("x", IntRange(0, 3))])],
            "domain": [a, b, prog("C", [Var.shared("x", IntRange(0, 5))])],
        }
        expected = {
            "name clash": "components share the name '(A||B)'",
            "locality": "variable x is declared local by C but is also declared",
            "domain": "shared variable x has mismatched domains: ",
        }
        for case, programs in cases.items():
            text = _error(lambda: compose_all(programs, check_init=False))
            assert text == _error(lambda: _fold(programs, check_init=False))
            assert text.startswith("(A||B) || ")
            assert expected[case] in text

    def test_check_init_probes_the_final_conjunction(self):
        zero = prog("Z", [X], init=ExprPredicate(X.ref() == 0))
        one = prog("O", [X], init=ExprPredicate(X.ref() == 1))
        other = prog("B", [B])
        for programs in ([zero, other, one], [zero, one, other]):
            text = _error(lambda: compose_all(programs))
            assert text == _error(lambda: _fold(programs))
            assert "no initial state" in text
            compose_all(programs, check_init=False)  # the probe is skippable
        assert compose_all([zero, other]).has_initial_state()

    @pytest.mark.parametrize("check_init", [False, True])
    def test_one_program_is_constructed(self, monkeypatch, check_init):
        import repro.core.composition as composition
        from repro.systems.counter import build_counter_component

        built = []

        class Counted(Program):
            def __init__(self, *args, **kwargs):
                built.append(args[0])
                super().__init__(*args, **kwargs)

        k = 6
        components = [build_counter_component(i, k, 2) for i in range(k)]
        monkeypatch.setattr(composition, "Program", Counted)
        system = compose_all(components, name="S", check_init=check_init)
        assert built == ["S"]
        assert isinstance(system, Counted)
