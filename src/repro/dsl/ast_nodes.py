"""Surface-syntax AST (the parser's output, the elaborator's input).

Kept deliberately separate from :mod:`repro.core.expressions`: surface
names are unresolved (``EName`` may be a variable or an enum label) and
types are unchecked until elaboration.

Nodes are slotted dataclasses, not frozen (a frozen one costs four times
as much to build); nothing mutates one, the shrinker edits copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "EInt", "EBool", "EName", "EUnary", "EBinary", "EIte", "ECall", "ExprAst",
    "PTypeBool", "PTypeInt", "PTypeEnum", "TypeAst",
    "PDecl", "PBranch", "PCommand", "PProgram", "PProperty",
]


# -- expressions -----------------------------------------------------------


@dataclass(slots=True)
class EInt:
    """Integer literal."""
    value: int


@dataclass(slots=True)
class EBool:
    """Boolean literal."""
    value: bool


@dataclass(slots=True)
class EName:
    """Unresolved name: variable reference or enum label."""
    name: str


@dataclass(slots=True)
class EUnary:
    """Unary operation; ``op`` in {'-', '~'}."""
    op: str
    operand: "ExprAst"


@dataclass(slots=True)
class EBinary:
    """Binary operation; ``op`` is the surface symbol."""
    op: str
    left: "ExprAst"
    right: "ExprAst"


@dataclass(slots=True)
class EIte:
    """Conditional expression."""
    cond: "ExprAst"
    then: "ExprAst"
    orelse: "ExprAst"


@dataclass(slots=True)
class ECall:
    """Builtin call: ``min`` / ``max``."""
    func: str
    args: tuple["ExprAst", ...]


ExprAst = EInt | EBool | EName | EUnary | EBinary | EIte | ECall


# -- declarations / types -----------------------------------------------------


@dataclass(slots=True)
class PTypeBool:
    """``bool``."""


@dataclass(slots=True)
class PTypeInt:
    """``int[lo..hi]``."""
    lo: int
    hi: int


@dataclass(slots=True)
class PTypeEnum:
    """``enum { a, b, … }``."""
    labels: tuple[str, ...]


TypeAst = PTypeBool | PTypeInt | PTypeEnum


@dataclass(slots=True)
class PDecl:
    """``local|shared name : type``."""
    locality: str
    name: str
    type_spec: TypeAst


# -- commands -----------------------------------------------------------------


@dataclass(slots=True)
class PBranch:
    """``guard -> x := e || y := f`` (guard ``None`` means ``true``)."""
    guard: ExprAst | None
    assigns: tuple[tuple[str, ExprAst], ...]


@dataclass(slots=True)
class PCommand:
    """``[fair] name: body`` — ``skip``, one branch, or ``[]``-separated
    branches (first-match alternative)."""
    name: str
    fair: bool
    is_skip: bool
    branches: tuple[PBranch, ...]


@dataclass(slots=True)
class PProgram:
    """A full ``program … end`` unit."""
    name: str
    decls: list[PDecl] = field(default_factory=list)
    init: ExprAst | None = None
    commands: list[PCommand] = field(default_factory=list)


# -- properties ------------------------------------------------------------------


@dataclass(slots=True)
class PProperty:
    """``init e | transient e | stable e | invariant e | e next e | e ~> e``."""
    kind: str  # 'init' | 'transient' | 'stable' | 'invariant' | 'next' | 'leadsto'
    first: ExprAst
    second: ExprAst | None = None


@dataclass(slots=True)
class PSystem:
    """``system Name = A || B || C`` — composition directive."""

    name: str
    components: tuple[str, ...]


@dataclass(slots=True)
class PModule:
    """A source file: several programs plus composition directives."""

    programs: list[PProgram] = field(default_factory=list)
    systems: list[PSystem] = field(default_factory=list)
