"""Recursive-descent parser for the UNITY-like surface language.

Declarations, commands and properties are read by one function per rule.
Expressions are read by precedence climbing over one operator table
(``_BINARY``), which implements the ``expr`` … ``term`` rules below; the
grammar stays the specification.  A syntax error is reported at the
token where the parse stopped; a command branch, which may be guarded
or bare, reports the error of whichever reading got further.  Input
nested deeper than the interpreter's recursion limit is a syntax error
too ("nested too deeply"), never a ``RecursionError``.

Grammar (EBNF; ``{}`` repetition, ``[]`` option)::

    program   = "program" name [decls] [init] [assigns] "end"
    decls     = "declare" decl {";" decl}
    decl      = ("local"|"shared") name ":" type
    type      = "bool" | "int" "[" INT ".." INT "]"
              | "enum" "{" IDENT {"," IDENT} "}"
    init      = "initially" expr
    assigns   = "assign" command {";" command}
    command   = ["fair"] name ":" ("skip" | branch {"[]" branch})
    branch    = [expr "->"] assign {"||" assign}
    assign    = name ":=" expr
    name      = IDENT ["[" INT {"," INT} "]"]

    property  = ("init"|"transient"|"stable"|"invariant") expr
              | expr ("next"|"~>") expr

    expr      = iff ;  iff = impl {"<=>" impl} ;  impl = or ["=>" impl]
    or        = and {"\\/" and} ;  and = not {"/\\" not}
    not       = "~" not | cmp
    cmp       = sum [("="|"!="|"<"|"<="|">"|">=") sum]
    sum       = term {("+"|"-") term} ;  term = factor {("*"|"//"|"%") factor}
    factor    = "-" factor | atom
    atom      = INT | "true" | "false" | name | "(" expr ")"
              | "(" "if" expr "then" expr "else" expr ")"
              | ("min"|"max") "(" expr "," expr ")"
"""

from __future__ import annotations

import functools

from repro.dsl.ast_nodes import (
    EBinary,
    EBool,
    ECall,
    EInt,
    EIte,
    EName,
    EUnary,
    ExprAst,
    PBranch,
    PCommand,
    PDecl,
    PProgram,
    PProperty,
    PTypeBool,
    PTypeEnum,
    PTypeInt,
    TypeAst,
)
from repro.dsl.lexer import tokenize
from repro.dsl.tokens import Token
from repro.errors import DslSyntaxError

__all__ = [
    "parse_program_text",
    "parse_module_text",
    "parse_property_text",
    "parse_expression_text",
]


def nesting_guard(parse):
    """Report text nested beyond the recursion limit as a syntax error.

    The parser and the elaborator recurse once per nesting level, so
    ``(((…)))``, a chain of ``~`` or a long sum can exhaust the stack;
    the caller gets a :class:`DslSyntaxError` like any other bad input.
    """

    @functools.wraps(parse)
    def guarded(*args, **kwargs):
        try:
            return parse(*args, **kwargs)
        except RecursionError:
            raise DslSyntaxError("text is nested too deeply to parse") from None

    return guarded


class _Stream:
    """Token cursor with friendly error reporting."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # ``pos`` never passes the trailing eof token (``advance`` stops on
    # it), so only a look-ahead needs clamping.
    def peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def at(self, *kinds: str) -> bool:
        return self.tokens[self.pos].kind in kinds

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise DslSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.column,
            )
        return self.advance()

    def error(self, message: str) -> DslSyntaxError:
        tok = self.peek()
        return DslSyntaxError(message, tok.line, tok.column)


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------


def _parse_name(s: _Stream) -> str:
    base = s.expect("ident").text
    if s.at("[") and s.peek(1).kind == "int":
        s.advance()  # '['
        indices = [s.expect("int").text]
        while s.at(","):
            s.advance()
            indices.append(s.expect("int").text)
        s.expect("]")
        return f"{base}[{','.join(indices)}]"
    return base


# ---------------------------------------------------------------------------
# expressions (precedence climbing over one operator table)
# ---------------------------------------------------------------------------

#: Precedence of prefix ``~``: looser than the comparisons, so ``~a = b``
#: is ``~(a = b)``, and not allowed as an operand of anything tighter.
_NOT = 5
#: Precedence of the (non-associative) comparisons.
_CMP = 6

#: Binary operator → (precedence, minimum precedence of its right operand),
#: loosest first.  A left-associative operator asks for a tighter right
#: operand, right-associative ``=>`` for one as loose as itself.
_BINARY = {
    "<=>": (1, 2),
    "=>": (2, 2),
    "\\/": (3, 4),
    "/\\": (4, 5),
    **{op: (_CMP, 7) for op in ("=", "!=", "<", "<=", ">", ">=")},
    "+": (7, 8), "-": (7, 8),
    "*": (8, 9), "//": (8, 9), "%": (8, 9),
}
_UNLIMITED = 9  # above every precedence in the table


def _parse_expr(s: _Stream) -> ExprAst:
    return _parse_binary(s, 1)


def _parse_binary(s: _Stream, min_prec: int) -> ExprAst:
    """Parse an expression whose operators bind at ``min_prec`` or tighter.

    Prefix ``~`` (precedence 5) and the comparisons (6) do not associate:
    once one of them is read, only a looser operator may continue the
    expression, so ``~a = b = c`` and ``a < b = c`` stop at the second
    comparison.
    """
    limit = _UNLIMITED
    if min_prec <= _NOT and s.at("~"):
        s.advance()
        left = EUnary("~", _parse_binary(s, _NOT))
        limit = _NOT
    else:
        left = _parse_factor(s)
    while True:
        op = s.peek().kind
        entry = _BINARY.get(op)
        if entry is None or not min_prec <= entry[0] < limit:
            return left
        s.advance()
        prec, right_prec = entry
        left = EBinary(op, left, _parse_binary(s, right_prec))
        if prec == _CMP:
            limit = _CMP


def _parse_factor(s: _Stream) -> ExprAst:
    if s.at("-"):
        s.advance()
        return EUnary("-", _parse_factor(s))
    return _parse_atom(s)


def _parse_atom(s: _Stream) -> ExprAst:
    tok = s.peek()
    if tok.kind == "int":
        s.advance()
        return EInt(int(tok.text))
    if tok.kind == "true":
        s.advance()
        return EBool(True)
    if tok.kind == "false":
        s.advance()
        return EBool(False)
    if tok.kind in ("min", "max"):
        s.advance()
        s.expect("(")
        first = _parse_expr(s)
        s.expect(",")
        second = _parse_expr(s)
        s.expect(")")
        return ECall(tok.kind, (first, second))
    if tok.kind == "ident":
        return EName(_parse_name(s))
    if tok.kind == "(":
        s.advance()
        if s.at("if"):
            s.advance()
            cond = _parse_expr(s)
            s.expect("then")
            then = _parse_expr(s)
            s.expect("else")
            orelse = _parse_expr(s)
            s.expect(")")
            return EIte(cond, then, orelse)
        inner = _parse_expr(s)
        s.expect(")")
        return inner
    raise s.error(f"expected an expression, found {tok.text or 'end of input'!r}")


# ---------------------------------------------------------------------------
# declarations / commands / programs
# ---------------------------------------------------------------------------


def _parse_type(s: _Stream) -> TypeAst:
    if s.at("bool"):
        s.advance()
        return PTypeBool()
    if s.at("int"):
        s.advance()
        s.expect("[")
        neg_lo = s.at("-") and (s.advance() or True)
        lo = int(s.expect("int").text) * (-1 if neg_lo else 1)
        s.expect("..")
        neg_hi = s.at("-") and (s.advance() or True)
        hi = int(s.expect("int").text) * (-1 if neg_hi else 1)
        s.expect("]")
        return PTypeInt(lo, hi)
    if s.at("enum"):
        s.advance()
        s.expect("{")
        labels = [s.expect("ident").text]
        while s.at(","):
            s.advance()
            labels.append(s.expect("ident").text)
        s.expect("}")
        return PTypeEnum(tuple(labels))
    raise s.error("expected a type (bool, int[lo..hi] or enum {…})")


def _parse_decl(s: _Stream) -> PDecl:
    if not s.at("local", "shared"):
        raise s.error("expected 'local' or 'shared'")
    locality = s.advance().kind
    name = _parse_name(s)
    s.expect(":")
    return PDecl(locality, name, _parse_type(s))


def _parse_branch(s: _Stream) -> PBranch:
    # A branch is 'expr -> assigns' or bare 'assigns': read it as guarded
    # first, then rewind and read it as bare.  When both readings fail,
    # the one that got further into the input reports.
    start = s.pos
    try:
        guard = _parse_expr(s)
        s.expect("->")
    except DslSyntaxError as exc:
        guard_error, guard_pos = exc, s.pos
    else:
        return PBranch(guard, _parse_assigns(s))
    s.pos = start
    try:
        return PBranch(None, _parse_assigns(s))
    except DslSyntaxError:
        if guard_pos > s.pos:
            raise guard_error from None
        raise


def _parse_assigns(s: _Stream) -> tuple[tuple[str, ExprAst], ...]:
    assigns = [_parse_assign(s)]
    while s.at("||"):
        s.advance()
        assigns.append(_parse_assign(s))
    return tuple(assigns)


def _parse_assign(s: _Stream) -> tuple[str, ExprAst]:
    name = _parse_name(s)
    s.expect(":=")
    return (name, _parse_expr(s))


def _parse_command(s: _Stream) -> PCommand:
    fair = False
    if s.at("fair"):
        s.advance()
        fair = True
    if s.at("skip") and s.peek(1).kind == ":":
        # The canonical identity command is itself named "skip".
        s.advance()
        name = "skip"
    else:
        name = _parse_name(s)
    s.expect(":")
    if s.at("skip"):
        s.advance()
        return PCommand(name, fair, True, ())
    branches = [_parse_branch(s)]
    while s.at("[]"):
        s.advance()
        branches.append(_parse_branch(s))
    return PCommand(name, fair, False, tuple(branches))


def _parse_program_unit(s: _Stream) -> PProgram:
    s.expect("program")
    prog = PProgram(name=_parse_name(s))
    if s.at("declare"):
        s.advance()
        prog.decls.append(_parse_decl(s))
        while s.at(";"):
            s.advance()
            prog.decls.append(_parse_decl(s))
    if s.at("initially"):
        s.advance()
        prog.init = _parse_expr(s)
    if s.at("assign"):
        s.advance()
        prog.commands.append(_parse_command(s))
        while s.at(";"):
            s.advance()
            prog.commands.append(_parse_command(s))
    s.expect("end")
    return prog


@nesting_guard
def parse_program_text(source: str) -> PProgram:
    """Parse a single ``program … end`` unit into a surface AST."""
    s = _Stream(tokenize(source))
    prog = _parse_program_unit(s)
    s.expect("eof")
    return prog


@nesting_guard
def parse_module_text(source: str):
    """Parse a module: any number of programs plus ``system`` directives.

    Grammar extension::

        module  = { program | systemdecl }
        systemdecl = "system" name "=" name {"||" name}
    """
    from repro.dsl.ast_nodes import PModule, PSystem

    s = _Stream(tokenize(source))
    module = PModule()
    while not s.at("eof"):
        if s.at("program"):
            module.programs.append(_parse_program_unit(s))
        elif s.at("system"):
            s.advance()
            name = _parse_name(s)
            s.expect("=")
            components = [_parse_name(s)]
            while s.at("||"):
                s.advance()
                components.append(_parse_name(s))
            module.systems.append(PSystem(name, tuple(components)))
        else:
            raise s.error("expected 'program' or 'system'")
    if not module.programs:
        raise s.error("module contains no programs")
    return module


@nesting_guard
def parse_property_text(source: str) -> PProperty:
    """Parse one property line into a surface AST."""
    s = _Stream(tokenize(source))
    if s.at("init", "transient", "stable", "invariant"):
        kind = s.advance().kind
        expr = _parse_expr(s)
        s.expect("eof")
        return PProperty(kind, expr)
    first = _parse_expr(s)
    if s.at("next"):
        s.advance()
        second = _parse_expr(s)
        s.expect("eof")
        return PProperty("next", first, second)
    if s.at("~>"):
        s.advance()
        second = _parse_expr(s)
        s.expect("eof")
        return PProperty("leadsto", first, second)
    raise s.error("expected 'next' or '~>' after the first predicate")


@nesting_guard
def parse_expression_text(source: str) -> ExprAst:
    """Parse a standalone expression (used by tests and the REPL helper)."""
    s = _Stream(tokenize(source))
    expr = _parse_expr(s)
    s.expect("eof")
    return expr
