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
from repro.dsl.lexer import scan, tokenize
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


class _Failure(Exception):
    """A syntax error at token ``pos``; :func:`_parse` adds its line and
    column if it escapes, so an abandoned reading costs no position."""

    def __init__(self, message: str, pos: int) -> None:
        self.message = message
        self.pos = pos


class _Stream:
    """Token cursor over the ``kinds``/``texts`` lists of :func:`scan`;
    ``pos`` never passes the trailing end-of-input token."""

    __slots__ = ("kinds", "texts", "pos", "kind")

    def __init__(self, source: str) -> None:
        self.kinds, self.texts = scan(source)
        self.pos = 0
        self.kind = self.kinds[0]

    def advance(self) -> str:
        """Step past the current token; return its text."""
        pos = self.pos
        if self.kind != "eof":
            self.pos = pos + 1
            self.kind = self.kinds[pos + 1]
        return self.texts[pos]

    def expect(self, kind: str) -> str:
        if self.kind != kind:
            raise self.error(f"expected {kind!r}, found {self.found()}")
        return self.advance()

    def found(self) -> str:
        """The current token's text, quoted, for an error message."""
        return repr(self.texts[self.pos] or "end of input")

    def error(self, message: str) -> _Failure:
        return _Failure(message, self.pos)


def _parse(source: str, rule):
    """Run ``rule`` over the whole of ``source``; report a failure with
    the line and column of the token where it stopped."""
    s = _Stream(source)
    try:
        result = rule(s)
        s.expect("eof")
    except _Failure as exc:
        token = tokenize(source)[exc.pos]
        raise DslSyntaxError(exc.message, token.line, token.column) from None
    return result


# ---------------------------------------------------------------------------
# names
# ---------------------------------------------------------------------------


def _parse_name(s: _Stream) -> str:
    base = s.expect("ident")
    # The current token is not the end of input, so ``pos + 1`` exists.
    if s.kind == "[" and s.kinds[s.pos + 1] == "int":
        s.advance()  # '['
        indices = [s.advance()]
        while s.kind == ",":
            s.advance()
            indices.append(s.expect("int"))
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
    if min_prec <= _NOT and s.kind == "~":
        s.advance()
        left = EUnary("~", _parse_binary(s, _NOT))
        limit = _NOT
    else:
        left = _parse_factor(s)
    while True:
        op = s.kind
        entry = _BINARY.get(op)
        if entry is None or not min_prec <= entry[0] < limit:
            return left
        s.advance()
        prec, right_prec = entry
        left = EBinary(op, left, _parse_binary(s, right_prec))
        if prec == _CMP:
            limit = _CMP


def _parse_factor(s: _Stream) -> ExprAst:
    if s.kind == "-":
        s.advance()
        return EUnary("-", _parse_factor(s))
    return _parse_atom(s)


def _parse_atom(s: _Stream) -> ExprAst:
    kind = s.kind
    if kind == "ident":
        return EName(_parse_name(s))
    if kind == "int":
        return EInt(int(s.advance()))
    if kind == "(":
        s.advance()
        if s.kind == "if":
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
    if kind == "true" or kind == "false":
        s.advance()
        return EBool(kind == "true")
    if kind == "min" or kind == "max":
        s.advance()
        s.expect("(")
        first = _parse_expr(s)
        s.expect(",")
        second = _parse_expr(s)
        s.expect(")")
        return ECall(kind, (first, second))
    raise s.error(f"expected an expression, found {s.found()}")


# ---------------------------------------------------------------------------
# declarations / commands / programs
# ---------------------------------------------------------------------------


def _parse_type(s: _Stream) -> TypeAst:
    kind = s.kind
    if kind == "bool":
        s.advance()
        return PTypeBool()
    if kind == "int":
        s.advance()
        s.expect("[")
        neg_lo = s.kind == "-" and (s.advance() or True)
        lo = int(s.expect("int")) * (-1 if neg_lo else 1)
        s.expect("..")
        neg_hi = s.kind == "-" and (s.advance() or True)
        hi = int(s.expect("int")) * (-1 if neg_hi else 1)
        s.expect("]")
        return PTypeInt(lo, hi)
    if kind == "enum":
        s.advance()
        s.expect("{")
        labels = [s.expect("ident")]
        while s.kind == ",":
            s.advance()
            labels.append(s.expect("ident"))
        s.expect("}")
        return PTypeEnum(tuple(labels))
    raise s.error("expected a type (bool, int[lo..hi] or enum {…})")


def _parse_decl(s: _Stream) -> PDecl:
    if s.kind != "local" and s.kind != "shared":
        raise s.error("expected 'local' or 'shared'")
    locality = s.advance()
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
    except _Failure as exc:
        guard_failure = exc
    else:
        return PBranch(guard, _parse_assigns(s))
    s.pos, s.kind = start, s.kinds[start]
    try:
        return PBranch(None, _parse_assigns(s))
    except _Failure as exc:
        if guard_failure.pos > exc.pos:
            raise guard_failure from None
        raise


def _parse_assigns(s: _Stream) -> tuple[tuple[str, ExprAst], ...]:
    assigns = [_parse_assign(s)]
    while s.kind == "||":
        s.advance()
        assigns.append(_parse_assign(s))
    return tuple(assigns)


def _parse_assign(s: _Stream) -> tuple[str, ExprAst]:
    name = _parse_name(s)
    s.expect(":=")
    return (name, _parse_expr(s))


def _parse_command(s: _Stream) -> PCommand:
    fair = s.kind == "fair"
    if fair:
        s.advance()
    if s.kind == "skip" and s.kinds[s.pos + 1] == ":":
        # The canonical identity command is itself named "skip".
        s.advance()
        name = "skip"
    else:
        name = _parse_name(s)
    s.expect(":")
    if s.kind == "skip":
        s.advance()
        return PCommand(name, fair, True, ())
    branches = [_parse_branch(s)]
    while s.kind == "[]":
        s.advance()
        branches.append(_parse_branch(s))
    return PCommand(name, fair, False, tuple(branches))


def _parse_program_unit(s: _Stream) -> PProgram:
    s.expect("program")
    prog = PProgram(name=_parse_name(s))
    if s.kind == "declare":
        s.advance()
        prog.decls.append(_parse_decl(s))
        while s.kind == ";":
            s.advance()
            prog.decls.append(_parse_decl(s))
    if s.kind == "initially":
        s.advance()
        prog.init = _parse_expr(s)
    if s.kind == "assign":
        s.advance()
        prog.commands.append(_parse_command(s))
        while s.kind == ";":
            s.advance()
            prog.commands.append(_parse_command(s))
    s.expect("end")
    return prog


@nesting_guard
def parse_program_text(source: str) -> PProgram:
    """Parse a single ``program … end`` unit into a surface AST."""
    return _parse(source, _parse_program_unit)


def _parse_module(s: _Stream):
    from repro.dsl.ast_nodes import PModule, PSystem

    module = PModule()
    while s.kind != "eof":
        if s.kind == "program":
            module.programs.append(_parse_program_unit(s))
        elif s.kind == "system":
            s.advance()
            name = _parse_name(s)
            s.expect("=")
            components = [_parse_name(s)]
            while s.kind == "||":
                s.advance()
                components.append(_parse_name(s))
            module.systems.append(PSystem(name, tuple(components)))
        else:
            raise s.error("expected 'program' or 'system'")
    if not module.programs:
        raise s.error("module contains no programs")
    return module


@nesting_guard
def parse_module_text(source: str):
    """Parse a module: any number of programs plus ``system`` directives.

    Grammar extension::

        module  = { program | systemdecl }
        systemdecl = "system" name "=" name {"||" name}
    """
    return _parse(source, _parse_module)


def _parse_property(s: _Stream) -> PProperty:
    kind = s.kind
    if kind in ("init", "transient", "stable", "invariant"):
        s.advance()
        return PProperty(kind, _parse_expr(s))
    first = _parse_expr(s)
    if s.kind == "next":
        s.advance()
        return PProperty("next", first, _parse_expr(s))
    if s.kind == "~>":
        s.advance()
        return PProperty("leadsto", first, _parse_expr(s))
    raise s.error("expected 'next' or '~>' after the first predicate")


@nesting_guard
def parse_property_text(source: str) -> PProperty:
    """Parse one property line into a surface AST."""
    return _parse(source, _parse_property)


@nesting_guard
def parse_expression_text(source: str) -> ExprAst:
    """Parse a standalone expression (used by tests and the REPL helper)."""
    return _parse(source, _parse_expr)
