"""Expression language over finite-domain program variables.

Expressions serve four masters:

1. **Commands** — right-hand sides of assignments and guards;
2. **wp** — weakest preconditions are computed *symbolically* by
   substitution (:meth:`Expr.substitute`), exactly as in UNITY;
3. **Model checking** — :meth:`Expr.eval_vec` evaluates an expression over
   the *entire* state space at once as NumPy arrays (one array element per
   encoded state), which keeps the semantic engine free of per-state Python
   loops;
4. **Pretty-printing** — proofs and the DSL print expressions back in a
   UNITY-like ASCII syntax (``/\\``, ``\\/``, ``~``, ``=>``).

Typing is eager and strict: every node carries a type (``'int'``, ``'bool'``
or an :class:`~repro.core.domains.EnumDomain`) computed at construction, so
malformed trees fail fast rather than at evaluation time.

Operator sugar: ``+ - * // %`` build arithmetic nodes; ``< <= > >= == !=``
build comparisons; ``& | ~`` build boolean connectives.  Because ``==`` is
overloaded, :class:`Expr` objects are deliberately **unhashable** and raise
on ``bool()`` — use :meth:`Expr.same_as` for structural comparison.

Nodes are **immutable**: no field of a node (or of the
:class:`~repro.core.variables.Var` it names) changes after construction,
and transformations such as :meth:`Expr.substitute` build new nodes (and
share the untouched subtrees).  Each node therefore computes its derived
data at most once, on first use, and keeps it in a slot:
:meth:`Expr.variables` (``_vars``) and the printed text (``_text``,
returned by ``str()``; a parent prints its children by reading their
cached text).  The printed text is the one structural identity —
``Predicate.describe()``, ``program_digest`` and the footprint kernel's
memo keys are all built from it — so there is deliberately no intern
table and no second digest.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any, Callable, Union

import numpy as np

from repro.core.domains import BoolDomain, EnumDomain, IntRange
from repro.core.variables import Var
from repro.errors import EvaluationError, ExpressionError

__all__ = [
    "Expr", "Const", "IntConst", "BoolConst", "VarRef",
    "Add", "Sub", "Mul", "FloorDiv", "Mod", "Neg", "MinE", "MaxE",
    "Lt", "Le", "Gt", "Ge", "EqE", "NeE",
    "And", "Or", "Not", "Implies", "Iff", "Ite",
    "const", "var_ref", "esum", "land", "lor", "lnot", "implies", "iff",
    "ite", "minimum", "maximum",
]

#: Type tags: 'int', 'bool', an EnumDomain, or None (a bare enum label
#: constant whose domain is fixed by the context it is compared against).
TypeTag = Union[str, EnumDomain, None]

ExprLike = Union["Expr", int, bool]


def _type_name(t: TypeTag) -> str:
    if t is None:
        return "literal"
    if isinstance(t, EnumDomain):
        return repr(t)
    return t


def _as_expr(x: ExprLike) -> "Expr":
    """Coerce Python ints/bools to constants (bools first: bool ⊂ int)."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, (bool, np.bool_)):
        return BoolConst(bool(x))
    if isinstance(x, (int, np.integer)):
        return IntConst(int(x))
    raise ExpressionError(f"cannot treat {x!r} as an expression")


class Expr:
    """Abstract base class of expression nodes.

    Subclasses set :attr:`typ` at construction and implement
    :meth:`eval`, :meth:`eval_vec`, :meth:`substitute`, :meth:`children`
    and :meth:`_fmt`, and set the ``_vars`` and ``_text`` slots to
    ``None``; :meth:`variables` and ``str()`` fill them on first use.
    """

    __slots__ = ("typ", "_vars", "_text")

    typ: TypeTag

    # -- evaluation ------------------------------------------------------

    def eval(self, env: Mapping[Var, Any]) -> Any:
        """Evaluate against a scalar environment mapping ``Var → value``."""
        raise NotImplementedError

    def eval_vec(self, env: Mapping[Var, np.ndarray]) -> Any:
        """Evaluate against a vector environment mapping ``Var → ndarray``.

        Returns an ndarray (or a scalar for constant subtrees; NumPy
        broadcasting makes the two interchangeable downstream).
        """
        raise NotImplementedError

    # -- structure -------------------------------------------------------

    def children(self) -> tuple["Expr", ...]:
        """Immediate sub-expressions."""
        raise NotImplementedError

    def substitute(self, mapping: Mapping[Var, "Expr"]) -> "Expr":
        """Return a copy with each ``VarRef(v)`` for ``v`` in ``mapping``
        replaced by ``mapping[v]`` (simultaneous substitution; the basis
        of symbolic ``wp``).  A subtree known to name none of those
        variables is returned as it is — nodes are immutable, so sharing
        it keeps its cached text and variables."""
        if self._vars is not None and self._vars.isdisjoint(mapping):
            return self
        return self._substitute(mapping)

    def _substitute(self, mapping: Mapping[Var, "Expr"]) -> "Expr":
        raise NotImplementedError

    def variables(self) -> frozenset[Var]:
        """All variables named anywhere in the tree (computed once; a
        subtree that already knows its variables is not walked again)."""
        if self._vars is not None:
            return self._vars
        out: set[Var] = set()
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, VarRef):
                out.add(node.var)
            elif node._vars is not None:
                out.update(node._vars)
            else:
                stack.extend(node.children())
        self._vars = frozenset(out)
        return self._vars

    def count_nodes(self) -> int:
        """Total number of nodes in the tree (bench/diagnostic metric)."""
        n = 0
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            n += 1
            stack.extend(node.children())
        return n

    def same_as(self, other: "Expr") -> bool:
        """Structural equality (``==`` is overloaded to build `EqE`)."""
        return isinstance(other, Expr) and self._key() == other._key()

    def _key(self) -> tuple:
        raise NotImplementedError

    # -- printing ----------------------------------------------------------

    #: Precedence for parenthesization; higher binds tighter.
    _prec = 100

    def _fmt(self) -> str:
        raise NotImplementedError

    def _fmt_child(self, child: "Expr", *, strict: bool = False) -> str:
        text = child._text  # ``str(child)``, inlined: this runs per node
        if text is None:
            text = str(child)
        if child._prec < self._prec or (strict and child._prec == self._prec):
            return f"({text})"
        return text

    def __str__(self) -> str:
        if self._text is None:
            # Print the unprinted nodes children first, so each ``_fmt``
            # reads cached child text: the Python stack stays flat however
            # deep the tree (a 600-term sum is a 600-deep ``Add`` chain).
            stack = [(self, iter(self.children()))]
            while stack:
                node, kids = stack[-1]
                for child in kids:
                    if child._text is None:
                        stack.append((child, iter(child.children())))
                        break
                else:
                    stack.pop()
                    node._text = node._fmt()
        return self._text

    def __repr__(self) -> str:
        return f"<Expr {self}>"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other: ExprLike) -> "Expr":
        return Add(self, _as_expr(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return Add(_as_expr(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return Sub(self, _as_expr(other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Sub(_as_expr(other), self)

    def __mul__(self, other: ExprLike) -> "Expr":
        return Mul(self, _as_expr(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return Mul(_as_expr(other), self)

    def __floordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv(self, _as_expr(other))

    def __mod__(self, other: ExprLike) -> "Expr":
        return Mod(self, _as_expr(other))

    def __neg__(self) -> "Expr":
        return Neg(self)

    def __lt__(self, other: ExprLike) -> "Expr":
        return Lt(self, _as_expr(other))

    def __le__(self, other: ExprLike) -> "Expr":
        return Le(self, _as_expr(other))

    def __gt__(self, other: ExprLike) -> "Expr":
        return Gt(self, _as_expr(other))

    def __ge__(self, other: ExprLike) -> "Expr":
        return Ge(self, _as_expr(other))

    def __eq__(self, other: object) -> "Expr":  # type: ignore[override]
        if not isinstance(other, (Expr, int, bool, np.integer, np.bool_, str)):
            return NotImplemented  # type: ignore[return-value]
        return EqE(self, _as_label_or_expr(other, self.typ))

    def __ne__(self, other: object) -> "Expr":  # type: ignore[override]
        if not isinstance(other, (Expr, int, bool, np.integer, np.bool_, str)):
            return NotImplemented  # type: ignore[return-value]
        return NeE(self, _as_label_or_expr(other, self.typ))

    def __and__(self, other: ExprLike) -> "Expr":
        return land(self, _as_expr(other))

    def __rand__(self, other: ExprLike) -> "Expr":
        return land(_as_expr(other), self)

    def __or__(self, other: ExprLike) -> "Expr":
        return lor(self, _as_expr(other))

    def __ror__(self, other: ExprLike) -> "Expr":
        return lor(_as_expr(other), self)

    def __invert__(self) -> "Expr":
        return Not(self)

    __hash__ = None  # type: ignore[assignment]

    def __bool__(self) -> bool:
        raise ExpressionError(
            "truth value of an Expr is ambiguous; use .same_as() for "
            "structural comparison or evaluate against a state"
        )


def _as_label_or_expr(x: object, context_typ: TypeTag) -> "Expr":
    """Coerce ``x`` for (dis)equality against an expression of type
    ``context_typ``; bare strings become enum-label constants."""
    if isinstance(x, Expr):
        return x
    if isinstance(x, str) or (
        context_typ is not None
        and isinstance(context_typ, EnumDomain)
        and not isinstance(x, (bool, np.bool_, int, np.integer))
    ):
        return Const(x, None)
    return _as_expr(x)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


class Const(Expr):
    """A literal constant.  ``typ`` is ``'int'``, ``'bool'`` or ``None``
    (a bare enum label, resolved by the comparison it appears in)."""

    __slots__ = ("value",)

    def __init__(self, value: Any, typ: TypeTag) -> None:
        self.value = value
        self.typ = typ
        self._vars = self._text = None

    def eval(self, env: Mapping[Var, Any]) -> Any:
        return self.value

    def eval_vec(self, env: Mapping[Var, np.ndarray]) -> Any:
        return self.value

    def children(self) -> tuple[Expr, ...]:
        return ()

    def _substitute(self, mapping: Mapping[Var, Expr]) -> Expr:
        return self

    def _key(self) -> tuple:
        return (Const, self.typ if not isinstance(self.typ, EnumDomain) else self.typ.name, self.value)

    def _fmt(self) -> str:
        if self.typ == "bool":
            return "true" if self.value else "false"
        return str(self.value)


def IntConst(value: int) -> Const:
    """Construct an integer constant node."""
    return Const(int(value), "int")


def BoolConst(value: bool) -> Const:
    """Construct a boolean constant node."""
    return Const(bool(value), "bool")


#: The boolean constants, shared for convenience.
TRUE_EXPR = BoolConst(True)
FALSE_EXPR = BoolConst(False)


class VarRef(Expr):
    """Reference to a program variable."""

    __slots__ = ("var",)

    def __init__(self, var: Var) -> None:
        if not isinstance(var, Var):
            raise ExpressionError(f"VarRef expects a Var, got {var!r}")
        self.var = var
        self._vars = self._text = None
        dom = var.domain
        if isinstance(dom, EnumDomain):
            self.typ = dom
        elif isinstance(dom, BoolDomain):
            self.typ = "bool"
        elif isinstance(dom, IntRange):
            self.typ = "int"
        else:
            raise ExpressionError(
                f"variable {var.name} has unsupported domain {dom!r}"
            )

    def eval(self, env: Mapping[Var, Any]) -> Any:
        try:
            return env[self.var]
        except KeyError:
            raise EvaluationError(
                f"variable {self.var.name} is not bound in the environment"
            ) from None

    def eval_vec(self, env: Mapping[Var, np.ndarray]) -> Any:
        try:
            return env[self.var]
        except KeyError:
            raise EvaluationError(
                f"variable {self.var.name} is not bound in the environment"
            ) from None

    def children(self) -> tuple[Expr, ...]:
        return ()

    def _substitute(self, mapping: Mapping[Var, Expr]) -> Expr:
        repl = mapping.get(self.var)
        if repl is None:
            return self
        if repl.typ is not None and repl.typ != self.typ:
            raise ExpressionError(
                f"substituting {self.var.name}:{_type_name(self.typ)} with "
                f"expression of type {_type_name(repl.typ)}"
            )
        return repl

    def _key(self) -> tuple:
        return (VarRef, self.var.name)

    def _fmt(self) -> str:
        return self.var.name


def var_ref(var: Var) -> VarRef:
    """Construct a variable reference node."""
    return VarRef(var)


def const(value: Any) -> Const:
    """Construct a constant node, inferring ``int``/``bool``/label type."""
    if isinstance(value, (bool, np.bool_)):
        return BoolConst(bool(value))
    if isinstance(value, (int, np.integer)):
        return IntConst(int(value))
    return Const(value, None)


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


class _BinArith(Expr):
    """Base of binary integer arithmetic nodes."""

    __slots__ = ("left", "right")

    _symbol = "?"
    _scalar: Callable[[int, int], int]
    _vector: Callable[..., np.ndarray]

    def __init__(self, left: ExprLike, right: ExprLike) -> None:
        self.left = _as_expr(left)
        self.right = _as_expr(right)
        for side, name in ((self.left, "left"), (self.right, "right")):
            if side.typ != "int":
                raise ExpressionError(
                    f"{self._symbol}: {name} operand must be int, got "
                    f"{_type_name(side.typ)} in {side}"
                )
        self.typ = "int"
        self._vars = self._text = None

    def eval(self, env: Mapping[Var, Any]) -> int:
        return type(self)._scalar(self.left.eval(env), self.right.eval(env))

    def eval_vec(self, env: Mapping[Var, np.ndarray]) -> Any:
        return type(self)._vector(self.left.eval_vec(env), self.right.eval_vec(env))

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def _substitute(self, mapping: Mapping[Var, Expr]) -> Expr:
        return type(self)(self.left.substitute(mapping), self.right.substitute(mapping))

    def _key(self) -> tuple:
        return (type(self), self.left._key(), self.right._key())

    def _fmt(self) -> str:
        return (
            f"{self._fmt_child(self.left)} {self._symbol} "
            f"{self._fmt_child(self.right, strict=True)}"
        )


class Add(_BinArith):
    """Integer addition."""
    __slots__ = ()
    _symbol, _prec = "+", 70
    _scalar = staticmethod(lambda a, b: a + b)
    _vector = staticmethod(np.add)


class Sub(_BinArith):
    """Integer subtraction."""
    __slots__ = ()
    _symbol, _prec = "-", 70
    _scalar = staticmethod(lambda a, b: a - b)
    _vector = staticmethod(np.subtract)


class Mul(_BinArith):
    """Integer multiplication."""
    __slots__ = ()
    _symbol, _prec = "*", 80
    _scalar = staticmethod(lambda a, b: a * b)
    _vector = staticmethod(np.multiply)


def _checked_floordiv(a: int, b: int) -> int:
    if b == 0:
        raise EvaluationError("division by zero")
    return a // b


def _checked_floordiv_vec(a: Any, b: Any) -> np.ndarray:
    if np.any(np.asarray(b) == 0):
        raise EvaluationError("division by zero")
    return np.floor_divide(a, b)


def _checked_mod(a: int, b: int) -> int:
    if b == 0:
        raise EvaluationError("modulo by zero")
    return a % b


def _checked_mod_vec(a: Any, b: Any) -> np.ndarray:
    if np.any(np.asarray(b) == 0):
        raise EvaluationError("modulo by zero")
    return np.mod(a, b)


class FloorDiv(_BinArith):
    """Integer floor division; raises :class:`EvaluationError` on zero divisor."""
    __slots__ = ()
    _symbol, _prec = "//", 80
    _scalar = staticmethod(_checked_floordiv)
    _vector = staticmethod(_checked_floordiv_vec)


class Mod(_BinArith):
    """Integer modulo (Python semantics); raises on zero divisor."""
    __slots__ = ()
    _symbol, _prec = "%", 80
    _scalar = staticmethod(_checked_mod)
    _vector = staticmethod(_checked_mod_vec)


class MinE(_BinArith):
    """Binary minimum."""
    __slots__ = ()
    _symbol, _prec = "min", 85
    _scalar = staticmethod(min)
    _vector = staticmethod(np.minimum)

    def _fmt(self) -> str:
        return f"min({self.left}, {self.right})"


class MaxE(_BinArith):
    """Binary maximum."""
    __slots__ = ()
    _symbol, _prec = "max", 85
    _scalar = staticmethod(max)
    _vector = staticmethod(np.maximum)

    def _fmt(self) -> str:
        return f"max({self.left}, {self.right})"


class Neg(Expr):
    """Unary integer negation."""

    __slots__ = ("operand",)
    _prec = 90

    def __init__(self, operand: ExprLike) -> None:
        self.operand = _as_expr(operand)
        if self.operand.typ != "int":
            raise ExpressionError(
                f"-: operand must be int, got {_type_name(self.operand.typ)}"
            )
        self.typ = "int"
        self._vars = self._text = None

    def eval(self, env: Mapping[Var, Any]) -> int:
        return -self.operand.eval(env)

    def eval_vec(self, env: Mapping[Var, np.ndarray]) -> Any:
        return np.negative(self.operand.eval_vec(env))

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def _substitute(self, mapping: Mapping[Var, Expr]) -> Expr:
        return Neg(self.operand.substitute(mapping))

    def _key(self) -> tuple:
        return (Neg, self.operand._key())

    def _fmt(self) -> str:
        return f"-{self._fmt_child(self.operand)}"


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def _fmt_comparison(node: "_Cmp | _EqBase") -> str:
    # Comparisons do not associate and ``~`` binds looser than they do
    # (``~a = b`` is ``~(a = b)``): parenthesize such operands.
    left, right = node.left, node.right
    left = f"({left})" if isinstance(left, Not) else node._fmt_child(left, strict=True)
    right = f"({right})" if isinstance(right, Not) else node._fmt_child(right, strict=True)
    return f"{left} {node._symbol} {right}"


class _Cmp(Expr):
    """Base of integer ordering comparisons."""

    __slots__ = ("left", "right")
    _prec = 60
    _symbol = "?"
    _scalar: Callable[[int, int], bool]
    _vector: Callable[..., np.ndarray]

    def __init__(self, left: ExprLike, right: ExprLike) -> None:
        self.left = _as_expr(left)
        self.right = _as_expr(right)
        for side, name in ((self.left, "left"), (self.right, "right")):
            if side.typ != "int":
                raise ExpressionError(
                    f"{self._symbol}: {name} operand must be int, got "
                    f"{_type_name(side.typ)} in {side}"
                )
        self.typ = "bool"
        self._vars = self._text = None

    def eval(self, env: Mapping[Var, Any]) -> bool:
        return type(self)._scalar(self.left.eval(env), self.right.eval(env))

    def eval_vec(self, env: Mapping[Var, np.ndarray]) -> Any:
        return type(self)._vector(self.left.eval_vec(env), self.right.eval_vec(env))

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def _substitute(self, mapping: Mapping[Var, Expr]) -> Expr:
        return type(self)(self.left.substitute(mapping), self.right.substitute(mapping))

    def _key(self) -> tuple:
        return (type(self), self.left._key(), self.right._key())

    _fmt = _fmt_comparison


class Lt(_Cmp):
    """Strictly less-than."""
    __slots__ = ()
    _symbol = "<"
    _scalar = staticmethod(lambda a, b: a < b)
    _vector = staticmethod(np.less)


class Le(_Cmp):
    """Less-than-or-equal."""
    __slots__ = ()
    _symbol = "<="
    _scalar = staticmethod(lambda a, b: a <= b)
    _vector = staticmethod(np.less_equal)


class Gt(_Cmp):
    """Strictly greater-than."""
    __slots__ = ()
    _symbol = ">"
    _scalar = staticmethod(lambda a, b: a > b)
    _vector = staticmethod(np.greater)


class Ge(_Cmp):
    """Greater-than-or-equal."""
    __slots__ = ()
    _symbol = ">="
    _scalar = staticmethod(lambda a, b: a >= b)
    _vector = staticmethod(np.greater_equal)


def _check_eq_types(left: Expr, right: Expr, symbol: str) -> tuple[Expr, Expr]:
    """Validate and normalize operand types of (dis)equality.

    Bare labels (``typ is None``) are resolved against the other side's
    enum domain; mixed int/bool comparisons are rejected.
    """
    lt, rt = left.typ, right.typ
    if lt is None and rt is None:
        raise ExpressionError(f"{symbol}: cannot compare two bare labels")
    if lt is None or rt is None:
        dom = rt if lt is None else lt
        if not isinstance(dom, EnumDomain):
            raise ExpressionError(
                f"{symbol}: bare label {left if lt is None else right} "
                f"compared against non-enum type {_type_name(dom)}"
            )
        label_node = left if lt is None else right
        assert isinstance(label_node, Const)
        if not dom.contains(label_node.value):
            raise ExpressionError(
                f"{symbol}: label {label_node.value!r} is not in {dom!r}"
            )
        return left, right
    if lt != rt:
        raise ExpressionError(
            f"{symbol}: type mismatch {_type_name(lt)} vs {_type_name(rt)}"
        )
    return left, right


class _EqBase(Expr):
    """Base of equality / disequality nodes."""

    __slots__ = ("left", "right")
    _prec = 60
    _symbol = "?"
    _negate = False

    def __init__(self, left: ExprLike, right: ExprLike) -> None:
        left = _as_label_or_expr(left, None) if not isinstance(left, Expr) else left
        right = _as_label_or_expr(right, left.typ) if not isinstance(right, Expr) else right
        self.left, self.right = _check_eq_types(left, right, self._symbol)
        self.typ = "bool"
        self._vars = self._text = None

    def eval(self, env: Mapping[Var, Any]) -> bool:
        result = self.left.eval(env) == self.right.eval(env)
        return (not result) if self._negate else bool(result)

    def eval_vec(self, env: Mapping[Var, np.ndarray]) -> Any:
        a = self.left.eval_vec(env)
        b = self.right.eval_vec(env)
        out = np.equal(a, b)
        return np.logical_not(out) if self._negate else out

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def _substitute(self, mapping: Mapping[Var, Expr]) -> Expr:
        left, right = self.left.substitute(mapping), self.right.substitute(mapping)
        if left.typ is None and right.typ is None:
            # ``m := busy`` into ``m = idle``: both labels were checked
            # against m's enum (the comparison's and the assignment's),
            # so they compare by value.
            return BoolConst((left.value == right.value) != self._negate)
        return type(self)(left, right)

    def _key(self) -> tuple:
        return (type(self), self.left._key(), self.right._key())

    _fmt = _fmt_comparison


class EqE(_EqBase):
    """Equality (any matching types)."""
    __slots__ = ()
    _symbol = "="
    _negate = False


class NeE(_EqBase):
    """Disequality (any matching types)."""
    __slots__ = ()
    _symbol = "!="
    _negate = True


# ---------------------------------------------------------------------------
# Boolean connectives
# ---------------------------------------------------------------------------


def _require_bool(args: Iterable[Expr], symbol: str) -> tuple[Expr, ...]:
    out = tuple(args)
    for a in out:
        if a.typ != "bool":
            raise ExpressionError(
                f"{symbol}: operand must be bool, got {_type_name(a.typ)} in {a}"
            )
    return out


# When the all-rows evaluation of ``And``/``Or``/``Implies``/``Ite`` raises
# :class:`EvaluationError` (a partial operator such as ``x // y`` where it is
# undefined), each later operand is evaluated again only on the rows the
# earlier ones leave open, as the short-circuiting scalar ``eval`` does.


def _env_take(env: Mapping[Var, Any], rows: np.ndarray) -> Mapping[Var, Any]:
    """``env`` at positions ``rows`` (``FrontierEnv.take``, or the rows
    of a mapping of columns)."""
    take = getattr(env, "take", None)
    if take is not None:
        return take(rows)
    return {v: (a[rows] if np.ndim(a) else a) for v, a in env.items()}


def _bool_rows(expr: "Expr", env: Mapping[Var, Any]) -> np.ndarray:
    """``expr`` as one boolean per row of ``env`` (constants broadcast)."""
    rows = getattr(env, "rows", None)
    if rows is None:
        rows = max((np.shape(a)[0] for a in env.values() if np.ndim(a)), default=1)
    return np.broadcast_to(np.asarray(expr.eval_vec(env), dtype=bool), (rows,))


def _short_circuit(
    operands: Sequence["Expr"], env: Mapping[Var, Any], open_value: bool
) -> np.ndarray:
    """Each operand on the rows every earlier one leaves at ``open_value``
    (``True`` for a conjunction, ``False`` for a disjunction)."""
    out = _bool_rows(operands[0], env).copy()
    rows = np.flatnonzero(out == open_value)
    for op in operands[1:]:
        if rows.size == 0:
            break
        vals = _bool_rows(op, _env_take(env, rows))
        out[rows] = vals
        rows = rows[vals == open_value]
    return out


class _NaryBool(Expr):
    """Base of flattened n-ary conjunction/disjunction."""

    __slots__ = ("operands",)
    _symbol = "?"
    _unit = True  # identity element

    def __init__(self, *operands: ExprLike) -> None:
        flat: list[Expr] = []
        for op in operands:
            e = _as_expr(op)
            if isinstance(e, type(self)):
                flat.extend(e.operands)
            else:
                flat.append(e)
        self.operands = _require_bool(flat, self._symbol)
        if not self.operands:
            raise ExpressionError(f"{self._symbol}: needs at least one operand")
        self.typ = "bool"
        self._vars = self._text = None

    def children(self) -> tuple[Expr, ...]:
        return self.operands

    def _substitute(self, mapping: Mapping[Var, Expr]) -> Expr:
        return type(self)(*(op.substitute(mapping) for op in self.operands))

    def _key(self) -> tuple:
        return (type(self),) + tuple(op._key() for op in self.operands)

    def _fmt(self) -> str:
        return f" {self._symbol} ".join(
            self._fmt_child(op, strict=True) for op in self.operands
        )


class And(_NaryBool):
    """n-ary conjunction (short-circuit scalar evaluation)."""

    __slots__ = ()
    _symbol, _prec = "/\\", 40

    def eval(self, env: Mapping[Var, Any]) -> bool:
        return all(op.eval(env) for op in self.operands)

    def eval_vec(self, env: Mapping[Var, np.ndarray]) -> Any:
        try:
            out = self.operands[0].eval_vec(env)
            for op in self.operands[1:]:
                out = np.logical_and(out, op.eval_vec(env))
            return out
        except EvaluationError:
            return _short_circuit(self.operands, env, True)


class Or(_NaryBool):
    """n-ary disjunction (short-circuit scalar evaluation)."""

    __slots__ = ()
    _symbol, _prec = "\\/", 30

    def eval(self, env: Mapping[Var, Any]) -> bool:
        return any(op.eval(env) for op in self.operands)

    def eval_vec(self, env: Mapping[Var, np.ndarray]) -> Any:
        try:
            out = self.operands[0].eval_vec(env)
            for op in self.operands[1:]:
                out = np.logical_or(out, op.eval_vec(env))
            return out
        except EvaluationError:
            return _short_circuit(self.operands, env, False)


class Not(Expr):
    """Boolean negation."""

    __slots__ = ("operand",)
    _prec = 90

    def __init__(self, operand: ExprLike) -> None:
        self.operand = _require_bool([_as_expr(operand)], "~")[0]
        self.typ = "bool"
        self._vars = self._text = None

    def eval(self, env: Mapping[Var, Any]) -> bool:
        return not self.operand.eval(env)

    def eval_vec(self, env: Mapping[Var, np.ndarray]) -> Any:
        return np.logical_not(self.operand.eval_vec(env))

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)

    def _substitute(self, mapping: Mapping[Var, Expr]) -> Expr:
        return Not(self.operand.substitute(mapping))

    def _key(self) -> tuple:
        return (Not, self.operand._key())

    def _fmt(self) -> str:
        return f"~{self._fmt_child(self.operand)}"


class Implies(Expr):
    """Boolean implication ``a => b``."""

    __slots__ = ("left", "right")
    _prec = 20

    def __init__(self, left: ExprLike, right: ExprLike) -> None:
        self.left, self.right = _require_bool(
            [_as_expr(left), _as_expr(right)], "=>"
        )
        self.typ = "bool"
        self._vars = self._text = None

    def eval(self, env: Mapping[Var, Any]) -> bool:
        return (not self.left.eval(env)) or bool(self.right.eval(env))

    def eval_vec(self, env: Mapping[Var, np.ndarray]) -> Any:
        try:
            return np.logical_or(
                np.logical_not(self.left.eval_vec(env)), self.right.eval_vec(env)
            )
        except EvaluationError:
            return _short_circuit((Not(self.left), self.right), env, False)

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def _substitute(self, mapping: Mapping[Var, Expr]) -> Expr:
        return Implies(self.left.substitute(mapping), self.right.substitute(mapping))

    def _key(self) -> tuple:
        return (Implies, self.left._key(), self.right._key())

    def _fmt(self) -> str:
        # => is right-associative: parenthesize a left child of equal prec.
        return f"{self._fmt_child(self.left, strict=True)} => {self._fmt_child(self.right)}"


class Iff(Expr):
    """Boolean equivalence ``a <=> b``."""

    __slots__ = ("left", "right")
    _prec = 10

    def __init__(self, left: ExprLike, right: ExprLike) -> None:
        self.left, self.right = _require_bool(
            [_as_expr(left), _as_expr(right)], "<=>"
        )
        self.typ = "bool"
        self._vars = self._text = None

    def eval(self, env: Mapping[Var, Any]) -> bool:
        return bool(self.left.eval(env)) == bool(self.right.eval(env))

    def eval_vec(self, env: Mapping[Var, np.ndarray]) -> Any:
        return np.equal(self.left.eval_vec(env), self.right.eval_vec(env))

    def children(self) -> tuple[Expr, ...]:
        return (self.left, self.right)

    def _substitute(self, mapping: Mapping[Var, Expr]) -> Expr:
        return Iff(self.left.substitute(mapping), self.right.substitute(mapping))

    def _key(self) -> tuple:
        return (Iff, self.left._key(), self.right._key())

    def _fmt(self) -> str:
        # Strict on the right too: the parser reads ``a <=> b <=> c`` left-nested.
        left = self._fmt_child(self.left, strict=True)
        return f"{left} <=> {self._fmt_child(self.right, strict=True)}"


class Ite(Expr):
    """Conditional expression ``if cond then a else b`` (same-typed arms)."""

    __slots__ = ("cond", "then", "orelse")
    _prec = 5

    def __init__(self, cond: ExprLike, then: ExprLike, orelse: ExprLike) -> None:
        self.cond = _require_bool([_as_expr(cond)], "ite")[0]
        then_e = _as_label_or_expr(then, None) if not isinstance(then, Expr) else then
        else_e = (
            _as_label_or_expr(orelse, then_e.typ)
            if not isinstance(orelse, Expr)
            else orelse
        )
        arm_typ = then_e.typ if then_e.typ is not None else else_e.typ
        if arm_typ is None:
            raise ExpressionError("ite: cannot type bare-label arms")
        for arm in (then_e, else_e):
            if arm.typ is None:
                # A bare label arm: validate it against the enum domain of
                # the other arm (mirrors equality-label resolution).
                if not isinstance(arm_typ, EnumDomain):
                    raise ExpressionError(
                        f"ite: bare label {arm} in non-enum conditional"
                    )
                assert isinstance(arm, Const)
                if not arm_typ.contains(arm.value):
                    raise ExpressionError(
                        f"ite: label {arm.value!r} is not in {arm_typ!r}"
                    )
            elif arm.typ != arm_typ:
                raise ExpressionError(
                    f"ite: arm types differ: {_type_name(then_e.typ)} vs "
                    f"{_type_name(else_e.typ)}"
                )
        self.then = then_e
        self.orelse = else_e
        self.typ = arm_typ
        self._vars = self._text = None

    def eval(self, env: Mapping[Var, Any]) -> Any:
        return self.then.eval(env) if self.cond.eval(env) else self.orelse.eval(env)

    def eval_vec(self, env: Mapping[Var, np.ndarray]) -> Any:
        try:
            return np.where(
                self.cond.eval_vec(env),
                self.then.eval_vec(env),
                self.orelse.eval_vec(env),
            )
        except EvaluationError:
            cond = _bool_rows(self.cond, env)
            arms = [
                (rows, np.asarray(arm.eval_vec(_env_take(env, rows))))
                for arm, rows in (
                    (self.then, np.flatnonzero(cond)),
                    (self.orelse, np.flatnonzero(~cond)),
                )
                if rows.size
            ]
            if not arms:
                raise
            out = np.empty(cond.shape, dtype=np.result_type(*(v for _, v in arms)))
            for rows, vals in arms:
                out[rows] = vals
            return out

    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.then, self.orelse)

    def _substitute(self, mapping: Mapping[Var, Expr]) -> Expr:
        return Ite(
            self.cond.substitute(mapping),
            self.then.substitute(mapping),
            self.orelse.substitute(mapping),
        )

    def _key(self) -> tuple:
        return (Ite, self.cond._key(), self.then._key(), self.orelse._key())

    def _fmt(self) -> str:
        return f"(if {self.cond} then {self.then} else {self.orelse})"


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def esum(exprs: Sequence[ExprLike]) -> Expr:
    """Sum of a sequence of integer expressions (``0`` if empty).

    Used pervasively for the paper's ``C = Σ_i c_i`` style predicates.
    """
    items = [_as_expr(e) for e in exprs]
    if not items:
        return IntConst(0)
    out = items[0]
    for e in items[1:]:
        out = Add(out, e)
    return out


def land(*exprs: ExprLike) -> Expr:
    """Conjunction; returns ``true`` for no arguments, unwraps singletons."""
    if not exprs:
        return BoolConst(True)
    if len(exprs) == 1:
        return _as_expr(exprs[0])
    return And(*exprs)


def lor(*exprs: ExprLike) -> Expr:
    """Disjunction; returns ``false`` for no arguments, unwraps singletons."""
    if not exprs:
        return BoolConst(False)
    if len(exprs) == 1:
        return _as_expr(exprs[0])
    return Or(*exprs)


def lnot(expr: ExprLike) -> Expr:
    """Negation."""
    return Not(expr)


def implies(left: ExprLike, right: ExprLike) -> Expr:
    """Implication."""
    return Implies(left, right)


def iff(left: ExprLike, right: ExprLike) -> Expr:
    """Equivalence."""
    return Iff(left, right)


def ite(cond: ExprLike, then: ExprLike, orelse: ExprLike) -> Expr:
    """Conditional expression."""
    return Ite(cond, then, orelse)


def minimum(*exprs: ExprLike) -> Expr:
    """n-ary minimum (left fold of binary min)."""
    if not exprs:
        raise ExpressionError("minimum of empty sequence")
    out = _as_expr(exprs[0])
    for e in exprs[1:]:
        out = MinE(out, e)
    return out


def maximum(*exprs: ExprLike) -> Expr:
    """n-ary maximum (left fold of binary max)."""
    if not exprs:
        raise ExpressionError("maximum of empty sequence")
    out = _as_expr(exprs[0])
    for e in exprs[1:]:
        out = MaxE(out, e)
    return out
