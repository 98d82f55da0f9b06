"""Printed expressions are their own identity: ``str`` re-parses.

Over typed expression trees built from the core constructors (bool, int
and enum variables; every node kind, with comparisons and ``~`` nested
inside comparisons), the printed text must parse and elaborate back to
the same text and the same structural key.  Equal keys after the round
trip also mean that two trees with distinct keys never print the same
text.

The CI ``fuzz`` job runs this file under the ``ci`` hypothesis profile
(registered in ``conftest.py``: derandomized, about 2000 examples);
tier-1 runs the default budget.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core import expressions as ex
from repro.core.domains import EnumDomain
from repro.core.variables import Var
from repro.dsl.elaborate import elaborate_expression
from repro.dsl.parser import parse_expression_text

MODE = EnumDomain("mode", ("idle", "busy", "done"))
VARS = {
    "bool": [Var.boolean("b"), Var.boolean("d")],
    "int": [Var.int_range("x", 0, 3), Var.int_range("y", -2, 2)],
    "enum": [Var("m", MODE), Var("n", MODE)],
}
ENV = {v.name: v for vs in VARS.values() for v in vs}

_labels = st.sampled_from(MODE.labels).map(lambda label: ex.Const(label, None))


def _refs(typ: str) -> st.SearchStrategy:
    return st.sampled_from(VARS[typ]).map(lambda v: v.ref())


def _node(ops, *args: st.SearchStrategy) -> st.SearchStrategy:
    """``op(*args)`` for an ``op`` drawn from ``ops``."""
    return st.builds(lambda op, *xs: op(*xs), st.sampled_from(ops), *args)


# Integer constants are non-negative: the parser reads ``-1`` as ``Neg(1)``.
_int_leaves = st.one_of(st.integers(0, 5).map(ex.IntConst), _refs("int"))
_bool_leaves = st.one_of(st.booleans().map(ex.BoolConst), _refs("bool"))
enums = st.one_of(
    _refs("enum"), st.builds(ex.Ite, _bool_leaves, _refs("enum"), _labels)
)
ints = st.recursive(
    _int_leaves,
    lambda kids: st.one_of(
        st.builds(ex.Neg, kids),
        _node((ex.Add, ex.Sub, ex.Mul, ex.FloorDiv, ex.Mod, ex.MinE, ex.MaxE),
              kids, kids),
        st.builds(ex.Ite, _bool_leaves, kids, kids),
    ),
    max_leaves=4,
)
bools = st.recursive(
    st.one_of(
        _bool_leaves,
        _node((ex.Lt, ex.Le, ex.Gt, ex.Ge, ex.EqE, ex.NeE), ints, ints),
        _node((ex.EqE, ex.NeE), enums, enums | _labels),
        _node((ex.EqE, ex.NeE), _labels, enums),
    ),
    lambda kids: st.one_of(
        st.builds(ex.Not, kids),
        _node((ex.And, ex.Or), kids, kids),
        _node((ex.And, ex.Or), kids, kids, kids),
        _node((ex.Implies, ex.Iff, ex.EqE, ex.NeE), kids, kids),
        st.builds(ex.Ite, kids, kids, kids),
    ),
    max_leaves=8,
)


@settings(deadline=None)
@given(st.one_of(bools, ints, enums))
def test_printed_expression_reparses_to_itself(expr):
    text = str(expr)
    again = elaborate_expression(parse_expression_text(text), ENV)
    assert str(again) == text
    assert again._key() == expr._key(), text


def test_ambiguous_operands_are_parenthesized():
    b, d = (v.ref() for v in VARS["bool"])
    x = VARS["int"][0].ref()
    cases = [
        (ex.EqE(b, ex.EqE(d, b)), "b = (d = b)"),
        (ex.EqE(ex.EqE(b, d), b), "(b = d) = b"),
        (ex.NeE(b, ex.Lt(x, ex.IntConst(2))), "b != (x < 2)"),
        (ex.EqE(ex.Not(b), d), "(~b) = d"),
        (ex.Not(ex.EqE(b, d)), "~(b = d)"),
        (ex.Iff(b, ex.Iff(d, b)), "b <=> (d <=> b)"),
        (ex.Iff(ex.Iff(b, d), b), "(b <=> d) <=> b"),
    ]
    for expr, text in cases:
        assert str(expr) == text
        again = elaborate_expression(parse_expression_text(text), ENV)
        assert again._key() == expr._key(), text
