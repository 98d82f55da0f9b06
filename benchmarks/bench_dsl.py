"""E11 — DSL pipeline: tokenize → parse → elaborate → pretty → re-parse.

Engineering benchmark for the surface language on generated sources of
growing size (k commands over k variables), plus three fixed texts: a
fuzz program and property of about 500 characters (the size of a
median ``check`` request), a family instance of about 5k characters,
and a 4000-term conjunction (linear-time chain elaboration).
"""

import pytest

from repro.core.expressions import And
from repro.dsl import parse_program, parse_property, pretty_program
from repro.dsl.lexer import tokenize
from repro.gen.families import build_scenario
from repro.gen.fuzz import fuzz_case


def make_source(k: int) -> str:
    decls = ";\n  ".join(f"shared x{i} : int[0..3]" for i in range(k))
    init = " /\\ ".join(f"x{i} = 0" for i in range(k))
    cmds = ";\n  ".join(
        f"fair c{i}: x{i} < 3 -> x{i} := x{i} + 1" for i in range(k)
    )
    return f"program Big\ndeclare\n  {decls}\ninitially\n  {init}\nassign\n  {cmds}\nend\n"


@pytest.mark.parametrize("k", [4, 16, 64], ids=lambda k: f"k{k}")
def test_E11_tokenize(benchmark, k):
    src = make_source(k)
    toks = benchmark(lambda: tokenize(src))
    assert toks[-1].kind == "eof"


@pytest.mark.parametrize("k", [4, 16, 64], ids=lambda k: f"k{k}")
def test_E11_parse_and_elaborate(benchmark, k, table_printer):
    src = make_source(k)
    prog = benchmark(lambda: parse_program(src))
    assert len(prog.commands) == k + 1  # + skip
    table_printer(
        f"E11: parse+elaborate, k={k}",
        ["source bytes", "commands", "variables"],
        [[len(src), len(prog.commands), len(prog.variables)]],
    )


@pytest.mark.parametrize("k", [4, 16], ids=lambda k: f"k{k}")
def test_E11_roundtrip(benchmark, k):
    prog = parse_program(make_source(k))

    def roundtrip():
        return parse_program(pretty_program(prog))

    out = benchmark(roundtrip)
    assert {c.body_key() for c in out.commands} == {
        c.body_key() for c in prog.commands
    }


#: A fuzz case whose program prints to about 500 characters.
MEDIAN_FUZZ_SEED = 173


def test_E11_check_median_fuzz_text(benchmark):
    case = fuzz_case(MEDIAN_FUZZ_SEED)
    src = pretty_program(case.program)
    prop_text = "true ~> " + " /\\ ".join(case.q_conjuncts)
    assert 400 <= len(src) <= 600

    def parse_both():
        program = parse_program(src)
        return program, parse_property(prop_text, program)

    program, prop = benchmark(parse_both)
    assert pretty_program(program) == src
    assert prop.describe()


def test_E11_family_text(benchmark):
    src = pretty_program(build_scenario("torus", rows=4, cols=4).program)
    assert 4000 <= len(src) <= 7000
    prog = benchmark(lambda: parse_program(src))
    assert pretty_program(prog) == src


def test_E11_long_conjunction(benchmark):
    terms = 4000
    src = (
        "program Chain\ndeclare shared x : int[0..2]\ninitially\n  "
        + " /\\ ".join(["x = 0"] * terms)
        + "\nassign\n  fair up: x < 2 -> x := x + 1\nend\n"
    )
    prog = benchmark(lambda: parse_program(src))
    init = prog.init.as_expr()
    assert isinstance(init, And) and len(init.operands) == terms
