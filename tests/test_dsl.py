"""Tests for repro.dsl: lexer, parser, elaboration, pretty round-trip."""

import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsl import (
    parse_module,
    parse_program,
    parse_property,
    parse_program_text,
    parse_property_text,
    parse_expression_text,
    pretty_program,
)
from repro.dsl.elaborate import elaborate_expression
from repro.dsl.lexer import tokenize
from repro.errors import DslSyntaxError, ElaborationError
from repro.semantics.transition import TransitionSystem

COUNTER_SRC = """
# the toy example, one component
program Counter
declare
  local c : int[0..3];
  shared C : int[0..9]
initially
  c = 0 /\\ C = 0
assign
  fair a: c < 3 /\\ C < 9 -> c := c + 1 || C := C + 1;
  idle: skip
end
"""


class TestLexer:
    def test_keywords_vs_idents(self):
        toks = tokenize("program foo initially fair x")
        kinds = [t.kind for t in toks]
        assert kinds == ["program", "ident", "initially", "fair", "ident", "eof"]

    def test_longest_match_symbols(self):
        toks = tokenize("<=> <= < := : ~> ~ [] [ ] // \\/ /\\ => = ..")
        kinds = [t.kind for t in toks][:-1]
        assert kinds == [
            "<=>", "<=", "<", ":=", ":", "~>", "~", "[]", "[", "]",
            "//", "\\/", "/\\", "=>", "=", "..",
        ]

    def test_comments_skipped(self):
        toks = tokenize("x # comment with := symbols\ny")
        assert [t.text for t in toks][:-1] == ["x", "y"]

    def test_positions(self):
        toks = tokenize("a\n  b")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_bad_character(self):
        with pytest.raises(DslSyntaxError, match="line 1"):
            tokenize("a $ b")

    def test_integers(self):
        toks = tokenize("x123 123x")
        assert [t.kind for t in toks][:-1] == ["ident", "int", "ident"]


class TestParser:
    def test_full_program(self):
        tree = parse_program_text(COUNTER_SRC)
        assert tree.name == "Counter"
        assert len(tree.decls) == 2
        assert len(tree.commands) == 2
        assert tree.commands[0].fair
        assert tree.commands[1].is_skip

    def test_indexed_names(self):
        tree = parse_program_text("""
program P
declare shared e[0,1] : bool
assign t: e[0,1] := ~e[0,1]
end
""")
        assert tree.decls[0].name == "e[0,1]"

    def test_branching_command(self):
        tree = parse_program_text("""
program P
declare shared x : int[0..2]
assign s: x = 0 -> x := 1 [] x = 1 -> x := 0
end
""")
        assert len(tree.commands[0].branches) == 2

    def test_guardless_branch(self):
        tree = parse_program_text("""
program P
declare shared x : int[0..2]
assign s: x := min(x + 1, 2)
end
""")
        assert tree.commands[0].branches[0].guard is None

    def test_negative_int_range(self):
        tree = parse_program_text("""
program P
declare shared x : int[-2..2]
end
""")
        from repro.dsl.ast_nodes import PTypeInt

        spec = tree.decls[0].type_spec
        assert isinstance(spec, PTypeInt) and spec.lo == -2 and spec.hi == 2

    def test_property_forms(self):
        assert parse_property_text("invariant x = 0").kind == "invariant"
        assert parse_property_text("transient x = 0").kind == "transient"
        assert parse_property_text("x = 0 next x = 1").kind == "next"
        assert parse_property_text("x = 0 ~> x = 1").kind == "leadsto"

    def test_property_missing_connective(self):
        with pytest.raises(DslSyntaxError):
            parse_property_text("x = 0 ; x = 1")

    def test_expression_precedence(self):
        e = parse_expression_text("1 + 2 * 3")
        from repro.dsl.ast_nodes import EBinary

        assert isinstance(e, EBinary) and e.op == "+"

    def test_implication_right_assoc(self):
        e = parse_expression_text("a => b => c")
        from repro.dsl.ast_nodes import EBinary

        assert isinstance(e.right, EBinary) and e.right.op == "=>"

    def test_ite_expression(self):
        e = parse_expression_text("(if b then 1 else 0)")
        from repro.dsl.ast_nodes import EIte

        assert isinstance(e, EIte)

    def test_error_position_reported(self):
        with pytest.raises(DslSyntaxError, match="line"):
            parse_program_text("program P\ndeclare shared x : int[0..3]\nassign : x := 1\nend")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_program_text("program P declare shared x : bool end extra")


def _stream(source):
    return [(t.kind, t.text, t.line, t.column) for t in tokenize(source)]


class TestLexerPositions:
    """Exact token streams, so a rewrite of the lexer cannot move a column."""

    def test_crlf_line_endings(self):
        assert _stream("a\r\nb := 1\r\n") == [
            ("ident", "a", 1, 1), ("ident", "b", 2, 1), (":=", ":=", 2, 3),
            ("int", "1", 2, 6), ("eof", "", 3, 1),
        ]

    def test_tabs_are_one_column(self):
        assert _stream("\tx\t:= 1") == [
            ("ident", "x", 1, 2), (":=", ":=", 1, 4), ("int", "1", 1, 7),
            ("eof", "", 1, 8),
        ]

    def test_trailing_blank_lines(self):
        assert _stream("x\n\n  \n") == [("ident", "x", 1, 1), ("eof", "", 4, 1)]

    def test_empty_source(self):
        assert _stream("") == [("eof", "", 1, 1)]

    def test_index_bracket_next_to_branch_separator(self):
        assert _stream("c[0] [] c[]") == [
            ("ident", "c", 1, 1), ("[", "[", 1, 2), ("int", "0", 1, 3),
            ("]", "]", 1, 4), ("[]", "[]", 1, 6), ("ident", "c", 1, 9),
            ("[]", "[]", 1, 10), ("eof", "", 1, 12),
        ]

    def test_keyword_prefixes_are_identifiers(self):
        assert _stream("endx fairly end fair") == [
            ("ident", "endx", 1, 1), ("ident", "fairly", 1, 6),
            ("end", "end", 1, 13), ("fair", "fair", 1, 17), ("eof", "", 1, 21),
        ]

    @pytest.mark.parametrize(
        "source, column", [("x\u0663", 2), ("a \u2264 b", 3)], ids=["digit", "operator"]
    )
    def test_non_ascii_is_an_unexpected_character(self, source, column):
        with pytest.raises(DslSyntaxError) as info:
            tokenize(source)
        bad = source[column - 1]
        assert str(info.value) == (
            f"unexpected character {bad!r} (line 1, column {column})"
        )

    def test_end_of_input_after_a_trailing_comment(self):
        # The end-of-input column is one past the last character of the
        # last line, comment included, not the column of the '#'.
        assert _stream("x # note")[-1] == ("eof", "", 1, 9)
        with pytest.raises(DslSyntaxError) as info:
            parse_program_text("program P # no body")
        assert str(info.value) == (
            "expected 'end', found 'end of input' (line 1, column 20)"
        )


#: The test's own precedence table: operator -> (precedence, associativity).
_PRECEDENCE = {
    "<=>": (1, "left"), "=>": (2, "right"), "\\/": (3, "left"),
    "/\\": (4, "left"),
    **{op: (6, "none") for op in ("=", "!=", "<", "<=", ">", ">=")},
    "+": (7, "left"), "-": (7, "left"),
    "*": (8, "left"), "//": (8, "left"), "%": (8, "left"),
}


class TestOperatorGrouping:
    """Pin precedence and associativity for every pair of operators."""

    @pytest.mark.parametrize("op1", sorted(_PRECEDENCE))
    def test_binary_operator_pairs(self, op1):
        from repro.dsl.ast_nodes import EBinary, EName

        a, b, c = EName("a"), EName("b"), EName("c")
        for op2 in _PRECEDENCE:
            text = f"a {op1} b {op2} c"
            (p1, assoc), (p2, _) = _PRECEDENCE[op1], _PRECEDENCE[op2]
            if p1 == p2 and assoc == "none":
                with pytest.raises(DslSyntaxError):
                    parse_expression_text(text)
                continue
            if p1 > p2 or (p1 == p2 and assoc == "left"):
                expected = EBinary(op2, EBinary(op1, a, b), c)
            else:
                expected = EBinary(op1, a, EBinary(op2, b, c))
            assert parse_expression_text(text) == expected, text

    def test_prefix_operators(self):
        from repro.dsl.ast_nodes import EBinary, EName, EUnary

        a, b = EName("a"), EName("b")
        assert parse_expression_text("~a = b") == EUnary("~", EBinary("=", a, b))
        assert parse_expression_text("~a /\\ b") == EBinary("/\\", EUnary("~", a), b)
        assert parse_expression_text("a => ~b") == EBinary("=>", a, EUnary("~", b))
        assert parse_expression_text("~ ~a") == EUnary("~", EUnary("~", a))
        assert parse_expression_text("- - a") == EUnary("-", EUnary("-", a))
        assert parse_expression_text("a * -b") == EBinary("*", a, EUnary("-", b))
        for text in ("a = ~b", "a + ~b", "~a = b = c"):
            with pytest.raises(DslSyntaxError):
                parse_expression_text(text)


def _one_command(command_line):
    return (
        "program P\ndeclare shared x : int[0..4]\nassign\n"
        f"{command_line}\nend"
    )


class TestBranchDiagnostics:
    """A branch is read as guarded, then as bare assignments; a failure
    is reported by whichever reading got further into the input."""

    @pytest.mark.parametrize("command_line, message", [
        ("  fair up: x < -> x := x + 1",
         "expected an expression, found '->' (line 4, column 16)"),
        ("  fair up: (x < 2 -> x := x + 1",
         "expected ')', found '->' (line 4, column 19)"),
        ("  fair up: 0 < x < 2 -> x := x + 1",
         "expected '->', found '<' (line 4, column 18)"),
    ], ids=["missing-operand", "unclosed-paren", "chained-comparison"])
    def test_guard_errors_are_reported_where_the_guard_fails(
        self, command_line, message
    ):
        with pytest.raises(DslSyntaxError) as info:
            parse_program_text(_one_command(command_line))
        assert str(info.value) == message

    @pytest.mark.parametrize("command_line, message", [
        ("  fair up: x := x +",
         "expected an expression, found 'end' (line 5, column 1)"),
        ("  fair up: x y",
         "expected ':=', found 'y' (line 4, column 14)"),
        ("  fair up: x < 1 -> x := ",
         "expected an expression, found 'end' (line 5, column 1)"),
    ], ids=["truncated-value", "missing-becomes", "truncated-guarded-value"])
    def test_assignment_errors_are_unchanged(self, command_line, message):
        with pytest.raises(DslSyntaxError) as info:
            parse_program_text(_one_command(command_line))
        assert str(info.value) == message


class TestElaboration:
    def test_program_semantics(self):
        p = parse_program(COUNTER_SRC)
        assert p.space.size == 4 * 10
        assert "a" in p.fair_names
        c, C = p.var_named("c"), p.var_named("C")
        assert c.is_local() and not C.is_local()
        s0 = p.initial_states()[0]
        assert s0[c] == 0 and s0[C] == 0

    def test_property_elaboration(self):
        p = parse_program(COUNTER_SRC)
        prop = parse_property("stable C - c = 0", p)
        assert prop.holds_in(p)
        prop2 = parse_property("true ~> C = 9", p)
        assert not prop2.holds_in(p)  # saturates at c=3 → C=3

    def test_enum_programs(self):
        p = parse_program("""
program M
declare shared mode : enum {idle, busy}
initially mode = idle
assign fair go: mode = idle -> mode := busy
end
""")
        prop = parse_property("true ~> mode = busy", p)
        assert prop.holds_in(p)

    def test_undeclared_assignment_target(self):
        with pytest.raises(ElaborationError):
            parse_program("""
program P
declare shared x : bool
assign t: y := true
end
""")

    def test_unknown_name_is_label_and_fails_typing(self):
        with pytest.raises(ElaborationError):
            parse_program("""
program P
declare shared x : int[0..3]
assign t: x := x + y
end
""")

    def test_non_bool_init_rejected(self):
        with pytest.raises(ElaborationError):
            parse_program("""
program P
declare shared x : int[0..3]
initially x + 1
end
""")

    def test_duplicate_decl_rejected(self):
        with pytest.raises(ElaborationError):
            parse_program("""
program P
declare shared x : bool; shared x : bool
end
""")

    def test_no_decls_rejected(self):
        with pytest.raises(ElaborationError):
            parse_program("program P end")

    def test_expression_env(self):
        p = parse_program(COUNTER_SRC)
        env = {v.name: v for v in p.variables}
        e = elaborate_expression(parse_expression_text("c + C"), env)
        assert e.typ == "int"


class TestRoundTrip:
    def _assert_equivalent(self, a, b):
        assert [v.name for v in a.variables] == [v.name for v in b.variables]
        assert (a.initial_mask() == b.initial_mask()).all()
        ta, tb = TransitionSystem.for_program(a), TransitionSystem.for_program(b)
        akeys = {c.body_key(): ta.tables[c.name] for c in a.commands}
        bkeys = {c.body_key(): tb.tables[c.name] for c in b.commands}
        assert set(akeys) == set(bkeys)
        for k in akeys:
            assert np.array_equal(akeys[k], bkeys[k])
        assert {a.command_named(n).body_key() for n in a.fair_names} == \
               {b.command_named(n).body_key() for n in b.fair_names}

    def test_counter_roundtrip(self):
        p = parse_program(COUNTER_SRC)
        self._assert_equivalent(p, parse_program(pretty_program(p)))

    def test_alt_enum_roundtrip(self):
        src = """
program M
declare shared mode : enum {idle, busy}; shared n : int[0..4]
initially mode = idle /\\ n = 0
assign
  fair step: mode = idle /\\ n < 4 -> mode := busy || n := n + 1
             [] mode = busy -> mode := idle;
  reset: n = 4 -> n := 0
end
"""
        p = parse_program(src)
        self._assert_equivalent(p, parse_program(pretty_program(p)))

    def test_core_built_program_roundtrip(self):
        """A program built through the API round-trips through the DSL."""
        from repro.systems.counter import build_counter_component

        p = build_counter_component(0, 2, 2)
        self._assert_equivalent(p, parse_program(pretty_program(p)))

    def test_priority_component_roundtrip(self):
        from repro.graph.generators import ring_graph
        from repro.systems.priority import build_priority_system

        psys = build_priority_system(ring_graph(3))
        comp = psys.components[0]
        self._assert_equivalent(comp, parse_program(pretty_program(comp)))


MODULE_SRC = """
program Pinger
declare shared turn : int[0..1]; local pings : int[0..3]
initially turn = 0 /\\ pings = 0
assign fair ping: turn = 0 /\\ pings < 3 -> turn := 1 || pings := pings + 1
end

program Ponger
declare shared turn : int[0..1]; local pongs : int[0..3]
initially turn = 0 /\\ pongs = 0
assign fair pong: turn = 1 /\\ pongs < 3 -> turn := 0 || pongs := pongs + 1
end

system PingPong = Pinger || Ponger
"""


class TestModules:
    def test_parse_module_programs_and_system(self):
        from repro.dsl import parse_module

        module = parse_module(MODULE_SRC)
        assert set(module) == {"Pinger", "Ponger", "PingPong"}
        system = module["PingPong"]
        assert system.space.size == 2 * 4 * 4
        assert {c.name for c in system.commands} == {"ping", "pong", "skip"}

    def test_system_is_real_composition(self):
        from repro.core.predicates import ExprPredicate
        from repro.core.properties import Invariant
        from repro.dsl import parse_module

        module = parse_module(MODULE_SRC)
        system = module["PingPong"]
        turn = system.var_named("turn")
        pings = system.var_named("pings")
        pongs = system.var_named("pongs")
        inv = Invariant(ExprPredicate(pings.ref() - pongs.ref() == turn.ref()))
        assert inv.holds_in(system)

    def test_single_program_module(self):
        from repro.dsl import parse_module

        module = parse_module(COUNTER_SRC)
        assert set(module) == {"Counter"}

    def test_unknown_component_rejected(self):
        from repro.dsl import parse_module

        with pytest.raises(ElaborationError, match="unknown component"):
            parse_module(COUNTER_SRC + "\nsystem S = Counter || Ghost\n")

    def test_duplicate_program_names_rejected(self):
        from repro.dsl import parse_module

        with pytest.raises(ElaborationError, match="duplicate"):
            parse_module(COUNTER_SRC + COUNTER_SRC)

    def test_system_name_clash_rejected(self):
        from repro.dsl import parse_module

        with pytest.raises(ElaborationError, match="clashes"):
            parse_module(COUNTER_SRC + "\nsystem Counter = Counter\n")

    def test_incompatible_composition_reported(self):
        from repro.dsl import parse_module

        src = """
program A
declare local z : int[0..1]
end
program B
declare local z : int[0..1]
end
system S = A || B
"""
        with pytest.raises(ElaborationError, match="locality"):
            parse_module(src)

    def test_empty_module_rejected(self):
        from repro.dsl import parse_module_text

        with pytest.raises(DslSyntaxError):
            parse_module_text("  # nothing here\n")

    def test_garbage_between_units_rejected(self):
        from repro.dsl import parse_module_text

        with pytest.raises(DslSyntaxError, match="expected 'program' or 'system'"):
            parse_module_text(COUNTER_SRC + "\nbogus\n")


class TestFuzzedRoundTrip:
    """Property-based round-trips over fuzzer-generated programs.

    The hand-picked round-trip cases above pin known shapes; these sweep
    the generator's whole grammar slice: for any seed, the generated
    program must satisfy ``parse(pretty(p)) ≡ p`` (semantic equality:
    variables, initial mask, successor tables, fair bodies) and
    ``pretty(parse(pretty(p))) == pretty(p)`` (textual idempotence).
    """

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_fuzzed_program_roundtrips(self, seed):
        from repro.gen.fuzz import check_roundtrip, fuzz_case

        check_roundtrip(fuzz_case(seed).program)

    def test_fuzzed_predicates_roundtrip(self):
        """Predicate conjuncts survive text → parse → elaborate → text."""
        from repro.gen.fuzz import fuzz_case, predicate_from_conjuncts

        for seed in range(20):
            case = fuzz_case(seed)
            for conjuncts in (case.p_conjuncts, case.q_conjuncts):
                pred = predicate_from_conjuncts(case.program, conjuncts)
                rendered = str(pred.as_expr())
                again = predicate_from_conjuncts(case.program, [rendered])
                assert np.array_equal(
                    pred.mask(case.program.space),
                    again.mask(case.program.space),
                ), (seed, conjuncts)


TRUNCATION_SRC = """program Counter
declare
  local c : int[0..3];
  shared C : int[0..9]
initially
  c = 0 /\\ C = 0
assign
  fair a: c < 3 /\\ C < 9 -> c := c + 1 || C := C + 1
end"""


class TestTruncatedInput:
    """Lexer/parser diagnostics on truncated sources: every prefix must
    fail with a *located* DslSyntaxError, never a crash or a silent
    acceptance."""

    @pytest.mark.parametrize("keep", range(len(TRUNCATION_SRC.splitlines())))
    def test_line_truncations_are_located_errors(self, keep):
        prefix = "\n".join(TRUNCATION_SRC.splitlines()[:keep])
        with pytest.raises(DslSyntaxError, match=r"line \d+, column \d+"):
            parse_program_text(prefix)

    def test_character_truncation_mid_token(self):
        # Cut inside the keyword `declare`: the parser sees a stray ident.
        cut = TRUNCATION_SRC.index("declare") + 1
        with pytest.raises(DslSyntaxError, match="expected 'end'"):
            parse_program_text(TRUNCATION_SRC[:cut])

    def test_missing_end_names_the_expectation(self):
        src = TRUNCATION_SRC.rsplit("\nend", 1)[0]
        with pytest.raises(DslSyntaxError, match="expected 'end'"):
            parse_program_text(src)

    def test_truncated_declaration_names_the_alternatives(self):
        src = "\n".join(TRUNCATION_SRC.splitlines()[:2])
        with pytest.raises(DslSyntaxError, match="'local' or 'shared'"):
            parse_program_text(src + "\n")

    def test_truncated_expression_says_so(self):
        src = "\n".join(TRUNCATION_SRC.splitlines()[:5])
        with pytest.raises(
            DslSyntaxError, match="expected an expression, found 'end of input'"
        ):
            parse_program_text(src)

    def test_error_positions_are_monotone_in_the_prefix(self):
        """Longer prefixes must never report an *earlier* error line —
        the diagnostic tracks how far the parse actually got."""
        lines = TRUNCATION_SRC.splitlines()
        reported = []
        for keep in range(1, len(lines)):
            try:
                parse_program_text("\n".join(lines[:keep]))
            except DslSyntaxError as exc:
                m = re.search(r"line (\d+)", str(exc))
                assert m is not None
                reported.append(int(m.group(1)))
        assert reported == sorted(reported)


ONE_VAR = """
program P
declare shared x : int[0..2]
initially {}
assign
  fair up: x < 2 -> x := x + 1
end
"""


class TestNestingDepth:
    """Text nested past the recursion limit is a syntax error, never a
    ``RecursionError`` escaping the front end."""

    def test_deep_parentheses_in_a_property(self):
        program = parse_program(ONE_VAR.format("x = 0"))
        depth = sys.getrecursionlimit()
        text = "(" * depth + "x = 0" + ")" * depth + " ~> x = 2"
        with pytest.raises(DslSyntaxError, match="nested too deeply"):
            parse_property_text(text)
        with pytest.raises(DslSyntaxError, match="nested too deeply"):
            parse_property(text, program)

    def test_deep_negation_in_initially(self):
        source = ONE_VAR.format("~" * (5 * sys.getrecursionlimit()) + "x = 0")
        for parse in (parse_program_text, parse_program, parse_module):
            with pytest.raises(DslSyntaxError, match="nested too deeply"):
                parse(source)

    def test_long_sum_fails_in_elaboration(self):
        # A sum parses by iteration but elaborates by recursion.
        terms = " + 0" * (3 * sys.getrecursionlimit())
        source = ONE_VAR.format("x = 0" + terms)
        parse_program_text(source)
        with pytest.raises(DslSyntaxError, match="nested too deeply"):
            parse_program(source)

    def test_deep_expression_text(self):
        depth = sys.getrecursionlimit()
        with pytest.raises(DslSyntaxError, match="nested too deeply"):
            parse_expression_text("(" * depth + "1" + ")" * depth)

    def test_moderate_nesting_still_parses(self):
        program = parse_program(ONE_VAR.format("~~~~x = 1"))
        prop = parse_property("(" * 50 + "x = 0" + ")" * 50 + " ~> x = 2", program)
        assert prop.describe()
