"""Pretty-printer: core programs back to surface syntax.

``parse_program(pretty_program(p))`` reconstructs a program with the same
variables, initial states and command semantics — the round-trip the DSL
tests assert (semantic equality: identical masks and successor tables).
"""

from __future__ import annotations

from repro.core.commands import Command, GuardedCommand, Skip
from repro.core.domains import BoolDomain, EnumDomain, IntRange
from repro.core.program import Program
from repro.core.variables import Var
from repro.errors import DslError

__all__ = ["pretty_program", "pretty_command", "pretty_type"]


def pretty_type(var: Var) -> str:
    """Surface syntax of a variable's domain."""
    dom = var.domain
    if isinstance(dom, BoolDomain):
        return "bool"
    if isinstance(dom, IntRange):
        return f"int[{dom.lo}..{dom.hi}]"
    if isinstance(dom, EnumDomain):
        return "enum {" + ", ".join(str(label) for label in dom.labels) + "}"
    raise DslError(f"cannot render domain {dom!r}")


def pretty_command(cmd: Command) -> str:
    """Surface syntax of one command body."""
    if isinstance(cmd, Skip):
        return "skip"
    if isinstance(cmd, GuardedCommand):
        return " [] ".join(cmd.branch_texts())
    raise DslError(f"cannot render command {cmd!r}")


def pretty_program(program: Program) -> str:
    """Full surface rendering of a program (parseable by the DSL)."""
    lines = [f"program {program.name}" if _plain(program.name) else "program P"]
    lines.append("declare")
    decls = [
        f"  {v.locality.value} {v.name} : {pretty_type(v)}"
        for v in program.variables
    ]
    lines.append(";\n".join(decls))
    init_text = str(program.init.as_expr()) if _has_expr(program) else None
    if init_text is not None:
        lines.append("initially")
        lines.append(f"  {init_text}")
    lines.append("assign")
    cmds = []
    for cmd in program.commands:
        fair = "fair " if cmd.name in program.fair_names else ""
        cmds.append(f"  {fair}{_cmd_name(cmd.name)}: {pretty_command(cmd)}")
    lines.append(";\n".join(cmds))
    lines.append("end")
    return "\n".join(lines)


def _plain(name: str) -> bool:
    import re

    return re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*(\[[0-9]+(,[0-9]+)*\])?", name) is not None


def _cmd_name(name: str) -> str:
    return name if _plain(name) else f"c_{abs(hash(name)) % 10_000}"


def _has_expr(program: Program) -> bool:
    from repro.errors import PropertyError

    try:
        program.init.as_expr()
    except PropertyError:
        return False
    return True
