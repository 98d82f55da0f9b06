"""Long ``/\\`` and ``\\/`` chains elaborate in linear time into one node.

The parser reads a chain of one operator in a loop, so a flat chain of
any length parses; the elaborator walks its left spine in a loop too, so
it builds a single n-ary ``And``/``Or`` without deep recursion.  A long
``+`` chain is different: its core ``Add`` tree really is that deep, so
it is still refused as text nested too deeply
(``tests/test_dsl.py::TestNestingDepth::test_long_sum_fails_in_elaboration``).
"""

from __future__ import annotations

import pytest

from repro.api import verify
from repro.core.expressions import And, Or
from repro.dsl import parse_program, parse_property
from repro.errors import ElaborationError

TERMS = 5000

PROGRAM = """
program Chain
declare shared x : int[0..2]
initially {}
assign
  fair up: x < 2 -> x := x + 1
end
"""


def test_long_conjunction_in_initially_is_one_node():
    program = parse_program(PROGRAM.format(" /\\ ".join(["x = 0"] * TERMS)))
    init = program.init.as_expr()
    assert isinstance(init, And) and len(init.operands) == TERMS
    assert verify(program, parse_property("true ~> x = 2", program)).holds


def test_long_disjunction_in_a_property_is_one_node():
    program = parse_program(PROGRAM.format("x = 0"))
    disjuncts = [f"x = {k % 2}" for k in range(TERMS)]
    prop = parse_property("invariant " + " \\/ ".join(disjuncts), program)
    expr = prop.p.as_expr()
    assert isinstance(expr, Or) and len(expr.operands) == TERMS
    verdict = verify(program, prop)
    assert verdict.holds is False  # x reaches 2


def test_mixed_and_parenthesized_chains_flatten_as_before():
    program = parse_program(PROGRAM.format("(x = 0 /\\ x < 2) /\\ (x < 1 /\\ x >= 0)"))
    init = program.init.as_expr()
    assert isinstance(init, And) and len(init.operands) == 4
    prop = parse_property("invariant x = 0 \\/ x = 1 /\\ x < 2 \\/ x = 2", program)
    top = prop.p.as_expr()
    assert isinstance(top, Or) and len(top.operands) == 3
    assert isinstance(top.operands[1], And)


def test_chain_type_errors_report_the_first_operand_in_reading_order():
    # The binary reading checks `3` (with its right neighbour) before it
    # elaborates `x + true`; the chain reports the same error.
    with pytest.raises(ElaborationError, match=r"operand must be bool, got int in 3"):
        parse_program(PROGRAM.format("3 /\\ x = 0 /\\ x + true = 1"))
    with pytest.raises(ElaborationError, match=r"\+: right operand must be int"):
        parse_program(PROGRAM.format("3 /\\ x + true = 1"))
