"""Elaboration: surface ASTs → core objects.

Resolves names (declared variable vs. enum label), applies the strict
expression typing of :mod:`repro.core.expressions`, and assembles
:class:`~repro.core.program.Program` /
:class:`~repro.core.properties.Property` values.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.commands import AltCommand, Skip
from repro.core.domains import BoolDomain, EnumDomain, IntRange
from repro.core.expressions import (
    Add,
    And,
    BoolConst,
    Const,
    EqE,
    Expr,
    FloorDiv,
    Ge,
    Gt,
    Iff,
    Implies,
    IntConst,
    Ite,
    Le,
    Lt,
    MaxE,
    MinE,
    Mod,
    Mul,
    NeE,
    Neg,
    Not,
    Or,
    Sub,
    _require_bool,
)
from repro.core.predicates import ExprPredicate
from repro.core.program import Program
from repro.core.properties import (
    Init,
    Invariant,
    LeadsTo,
    Next,
    Property,
    Stable,
    Transient,
)
from repro.core.variables import Locality, Var
from repro.dsl import ast_nodes as ast
from repro.errors import ElaborationError, ExpressionError

__all__ = ["elaborate_program", "elaborate_property", "elaborate_expression"]

_NARY = {"/\\": And, "\\/": Or}
_BINARY = {
    "+": Add, "-": Sub, "*": Mul, "//": FloorDiv, "%": Mod,
    "=": EqE, "!=": NeE, "<": Lt, "<=": Le, ">": Gt, ">=": Ge,
    "=>": Implies, "<=>": Iff,
}


def _elab_type(name: str, spec: ast.TypeAst):
    if isinstance(spec, ast.PTypeBool):
        return BoolDomain()
    if isinstance(spec, ast.PTypeInt):
        return IntRange(spec.lo, spec.hi)
    if isinstance(spec, ast.PTypeEnum):
        # Anonymous enums are named by their label tuple so that identical
        # declarations in different components merge under composition.
        return EnumDomain("_".join(spec.labels), spec.labels)
    raise ElaborationError(f"unknown type spec {spec!r} for {name}")


def elaborate_expression(
    node: ast.ExprAst, variables: Mapping[str, Var]
) -> Expr:
    """Elaborate a surface expression against a variable environment.

    Unresolved names become enum-label constants — the strict typing of
    the core expression layer rejects them unless an enum comparison or
    assignment gives them a domain.
    """
    try:
        return _elab(node, variables)
    except ExpressionError as exc:
        raise ElaborationError(str(exc)) from exc


def _elab(node: ast.ExprAst, env: Mapping[str, Var]) -> Expr:
    kind = type(node)
    if kind is ast.EName:
        var = env.get(node.name)
        if var is not None:
            return var.ref()
        return Const(node.name, None)  # enum label, typed by context
    if kind is ast.EBinary:
        if node.op in _NARY:
            return _elab_chain(node, env)
        ctor = _BINARY.get(node.op)
        if ctor is None:
            raise ElaborationError(f"unknown operator {node.op!r}")
        return ctor(_elab(node.left, env), _elab(node.right, env))
    if kind is ast.EInt:
        return IntConst(node.value)
    if kind is ast.EUnary:
        inner = _elab(node.operand, env)
        return Neg(inner) if node.op == "-" else Not(inner)
    if kind is ast.EBool:
        return BoolConst(node.value)
    if kind is ast.EIte:
        return Ite(
            _elab(node.cond, env), _elab(node.then, env), _elab(node.orelse, env)
        )
    if kind is ast.ECall:
        args = [_elab(a, env) for a in node.args]
        return MinE(*args) if node.func == "min" else MaxE(*args)
    raise ElaborationError(f"unknown expression node {node!r}")


def _elab_chain(node: ast.EBinary, env: Mapping[str, Var]) -> Expr:
    """A left-nested chain of one ``/\\`` or ``\\/``, walked in a loop, as one
    n-ary node; operands are type-checked in the binary reading's order."""
    op = node.op
    rights = []
    while type(node) is ast.EBinary and node.op == op:
        rights.append(node.right)
        node = node.left
    operands = [_elab(node, env), _elab(rights.pop(), env)]
    _require_bool(operands, op)
    for right in reversed(rights):
        operands.append(_elab(right, env))
        _require_bool(operands[-1:], op)
    return _NARY[op](*operands)


def elaborate_program(tree: ast.PProgram) -> Program:
    """Elaborate a parsed program into a :class:`~repro.core.program.Program`."""
    env: dict[str, Var] = {}
    variables: list[Var] = []
    for decl in tree.decls:
        if decl.name in env:
            raise ElaborationError(
                f"program {tree.name}: duplicate declaration of {decl.name}"
            )
        locality = Locality.LOCAL if decl.locality == "local" else Locality.SHARED
        var = Var(decl.name, _elab_type(decl.name, decl.type_spec), locality)
        env[decl.name] = var
        variables.append(var)
    if not variables:
        raise ElaborationError(f"program {tree.name}: no variables declared")

    if tree.init is None:
        init = ExprPredicate(BoolConst(True))
    else:
        init_expr = elaborate_expression(tree.init, env)
        if init_expr.typ != "bool":
            raise ElaborationError(
                f"program {tree.name}: initially must be boolean"
            )
        init = ExprPredicate(init_expr)

    commands = []
    fair: list[str] = []
    for cmd in tree.commands:
        if cmd.is_skip:
            commands.append(Skip(cmd.name))
        else:
            branches = []
            for br in cmd.branches:
                guard = (
                    BoolConst(True)
                    if br.guard is None
                    else elaborate_expression(br.guard, env)
                )
                assigns = []
                for name, rhs in br.assigns:
                    var = env.get(name)
                    if var is None:
                        raise ElaborationError(
                            f"command {cmd.name}: assignment to undeclared "
                            f"variable {name}"
                        )
                    assigns.append((var, elaborate_expression(rhs, env)))
                branches.append((guard, assigns))
            commands.append(AltCommand(cmd.name, branches))
        if cmd.fair:
            fair.append(cmd.name)
    return Program(tree.name, variables, init, commands, fair=fair)


def elaborate_property(tree: ast.PProperty, program: Program) -> Property:
    """Elaborate a parsed property against ``program``'s variables."""
    env = {v.name: v for v in program.variables}

    def pred(node: ast.ExprAst) -> ExprPredicate:
        expr = elaborate_expression(node, env)
        if expr.typ != "bool":
            raise ElaborationError("property predicates must be boolean")
        return ExprPredicate(expr)

    if tree.kind == "init":
        return Init(pred(tree.first))
    if tree.kind == "transient":
        return Transient(pred(tree.first))
    if tree.kind == "stable":
        return Stable(pred(tree.first))
    if tree.kind == "invariant":
        return Invariant(pred(tree.first))
    if tree.kind == "next":
        assert tree.second is not None
        return Next(pred(tree.first), pred(tree.second))
    if tree.kind == "leadsto":
        assert tree.second is not None
        return LeadsTo(pred(tree.first), pred(tree.second))
    raise ElaborationError(f"unknown property kind {tree.kind!r}")


def elaborate_module(tree) -> dict[str, Program]:
    """Elaborate a parsed module: every program, plus every declared
    composed system (via :func:`repro.core.composition.compose_all`).

    Returns a name → :class:`~repro.core.program.Program` mapping in which
    component programs and composed systems share one namespace.
    """
    from repro.core.composition import compose_all

    out: dict[str, Program] = {}
    for ptree in tree.programs:
        prog = elaborate_program(ptree)
        if prog.name in out:
            raise ElaborationError(f"duplicate program name {prog.name!r}")
        out[prog.name] = prog
    for sys_decl in tree.systems:
        if sys_decl.name in out:
            raise ElaborationError(
                f"system {sys_decl.name!r} clashes with an existing name"
            )
        try:
            components = [out[c] for c in sys_decl.components]
        except KeyError as exc:
            raise ElaborationError(
                f"system {sys_decl.name}: unknown component {exc.args[0]!r}"
            ) from None
        from repro.errors import CompositionError

        try:
            out[sys_decl.name] = compose_all(components, name=sys_decl.name)
        except CompositionError as exc:
            raise ElaborationError(
                f"system {sys_decl.name}: {exc}"
            ) from exc
    return out
