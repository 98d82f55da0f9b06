"""Coverage for the remaining corners: variables, the error hierarchy,
transition-system bulk queries, and expression↔DSL round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings

import repro
from repro import errors
from repro.core.domains import BoolDomain, IntRange
from repro.core.expressions import Expr
from repro.core.state import StateSpace
from repro.core.variables import Var
from repro.dsl import parse_expression_text
from repro.dsl.elaborate import elaborate_expression
from repro.semantics.transition import TransitionSystem

from tests.conftest import SHARED_VARS, guard_strategy


class TestVariables:
    def test_constructors(self):
        assert Var.local("a", IntRange(0, 1)).is_local()
        assert not Var.shared("a", IntRange(0, 1)).is_local()
        assert isinstance(Var.boolean("b").domain, BoolDomain)
        assert Var.int_range("x", 0, 5).domain == IntRange(0, 5)

    def test_indexed_naming(self):
        assert Var.indexed("c", 3, BoolDomain()).name == "c[3]"
        assert Var.indexed("e", (0, 2), BoolDomain()).name == "e[0,2]"

    def test_bad_names_rejected(self):
        for bad in ("", "1x", "a b", "x[", "x[a]", "x[1"):
            with pytest.raises(errors.StateError):
                Var(bad, BoolDomain())

    def test_bad_domain_and_locality(self):
        with pytest.raises(errors.StateError):
            Var("x", "not-a-domain")  # type: ignore[arg-type]
        with pytest.raises(errors.StateError):
            Var("x", BoolDomain(), "local")  # type: ignore[arg-type]

    def test_structural_equality(self):
        a = Var.shared("x", IntRange(0, 3))
        b = Var.shared("x", IntRange(0, 3))
        assert a == b and hash(a) == hash(b)
        assert a != Var.local("x", IntRange(0, 3))
        assert a != Var.shared("x", IntRange(0, 4))

    def test_check_value(self):
        v = Var.shared("x", IntRange(0, 3))
        assert v.check_value(2) == 2
        with pytest.raises(errors.DomainError, match="variable x"):
            v.check_value(7)

    def test_ref_builds_varref(self):
        v = Var.boolean("b")
        assert isinstance(v.ref(), Expr)
        assert v.ref().typ == "bool"


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in errors.__all__:
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_dsl_syntax_error_position(self):
        exc = errors.DslSyntaxError("bad token", 3, 7)
        assert exc.line == 3 and exc.column == 7
        assert "line 3" in str(exc)

    def test_dsl_syntax_error_without_position(self):
        exc = errors.DslSyntaxError("oops")
        assert "line" not in str(exc)

    def test_catching_base_class(self):
        with pytest.raises(errors.ReproError):
            raise errors.CompositionError("nope")


class TestTransitionSystemBulk:
    def test_weak_cache_identity(self, toggle_program):
        a = TransitionSystem.for_program(toggle_program)
        b = TransitionSystem.for_program(toggle_program)
        assert a is b

    def test_table_lookup_by_name_or_command(self, toggle_program):
        ts = TransitionSystem.for_program(toggle_program)
        cmd = toggle_program.command_named("toggle")
        assert np.array_equal(ts.table_of(cmd), ts.table_of("toggle"))

    def test_edge_count(self, toggle_program):
        ts = TransitionSystem.for_program(toggle_program)
        assert ts.edge_count() == 2 * len(toggle_program.commands)


class TestExpressionDslRoundTrip:
    """str(expr) is parseable DSL and denotes the same function."""

    @settings(max_examples=80)
    @given(guard_strategy())
    def test_bool_exprs_roundtrip(self, expr):
        env = {v.name: v for v in SHARED_VARS}
        reparsed = elaborate_expression(
            parse_expression_text(str(expr)), env
        )
        space = StateSpace(list(SHARED_VARS))
        arrays = space.var_arrays()
        assert np.array_equal(
            np.asarray(expr.eval_vec(arrays)),
            np.asarray(reparsed.eval_vec(arrays)),
        )

    @pytest.mark.parametrize("text", [
        "x + 2 * 3 - 1",
        "min(x, 2) + max(x, 1)",
        "(if b then x else 2 - x)",
        "~(b /\\ x = 2) => b \\/ x < 1",
        "x % 2 = 0 <=> ~b",
        "x // 2 >= 1",
    ])
    def test_handwritten_exprs_roundtrip(self, text):
        env = {v.name: v for v in SHARED_VARS}
        first = elaborate_expression(parse_expression_text(text), env)
        second = elaborate_expression(parse_expression_text(str(first)), env)
        space = StateSpace(list(SHARED_VARS))
        arrays = space.var_arrays()
        assert np.array_equal(
            np.asarray(first.eval_vec(arrays)),
            np.asarray(second.eval_vec(arrays)),
        )


class TestPackageSurface:
    def test_version_exposed(self):
        assert repro.__version__
        assert repro.__version__ == repro._version.__version__

    def test_top_level_reexports(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_alls_resolve(self):
        import repro.core as core
        import repro.graph as graph
        import repro.semantics as semantics
        import repro.systems as systems

        for module in (core, graph, semantics, systems):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (module, name)
