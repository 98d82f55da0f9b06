"""Predicates: boolean-valued properties of single states.

The paper treats a *property* as a predicate on systems and builds the
property language (``init``, ``next``, …) from predicates on **states**.
This module provides those state predicates, in three flavours:

- :class:`ExprPredicate` — backed by a boolean
  :class:`~repro.core.expressions.Expr`; supports symbolic substitution
  (hence symbolic ``wp``) and vectorized mask evaluation.  The common case.
- :class:`FnPredicate` — backed by an arbitrary ``State → bool`` callable;
  the escape hatch for predicates that are awkward to express as
  expressions (e.g. graph reachability ``A*(i) = ∅`` in §4).  Masks are
  computed by the base per-state loop, so prefer :class:`MaskPredicate`
  when the same predicate is consulted repeatedly.
- :class:`MaskPredicate` — backed by a precomputed boolean mask over one
  specific state space (used by the priority system, which precomputes
  reachability sets for all orientations once).
- :class:`SupportPredicate` — backed by a sorted array of **member state
  indices** of one specific space: true exactly on those states.  The
  sparse-tier twin of :class:`MaskPredicate`: membership is decided by
  binary search, so the predicate never allocates anything of length
  ``space.size``.  The sparse proof synthesizer
  (:mod:`repro.semantics.synthesis`) builds its induction levels from
  these.

All flavours compose with ``& | ~`` and :meth:`Predicate.implies`, and can
be compared semantically over a space (:meth:`Predicate.equivalent`,
:meth:`Predicate.entails`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any

import numpy as np

from repro.core.expressions import (
    BoolConst,
    Expr,
    land,
    lnot,
    lor,
)
from repro.core.state import FrontierEnv, State, StateSpace
from repro.core.variables import Var
from repro.errors import PropertyError
from repro.util.csr import in_sorted

__all__ = [
    "Predicate",
    "ExprPredicate",
    "FnPredicate",
    "MaskPredicate",
    "SupportPredicate",
    "PrefixSupportPredicate",
    "SupportTable",
    "TRUE",
    "FALSE",
    "forall_range",
    "exists_range",
]


class Predicate:
    """Abstract base class of state predicates: one kernel,
    :meth:`_mask_of`, run on a frontier environment by :meth:`mask_at`
    and on every state (the space's cached columns) by :meth:`mask`."""

    # -- core interface ---------------------------------------------------

    def holds(self, state: State) -> bool:
        """Truth value at a single state."""
        raise NotImplementedError

    def mask(self, space: StateSpace) -> np.ndarray:
        """Boolean satisfaction mask over all encoded states of ``space``
        (a dense-tier operation)."""
        return self._mask_of(space.full_env())

    def mask_at(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        """Frontier satisfaction mask: truth values at the state indices
        ``idx`` only (``== mask(space)[idx]``, without the full mask).
        This is the predicate entry point of the sparse engine
        (:mod:`repro.semantics.sparse`).
        """
        return self._mask_of(space.frontier_env(idx))

    def _mask_of(self, env: FrontierEnv) -> np.ndarray:
        """Truth values at the states of ``env``; the base decodes one
        state at a time through :meth:`holds`."""
        space = env.space
        out = np.empty(env.rows, dtype=bool)
        for k, i in enumerate(env.idx.tolist()):
            out[k] = bool(self.holds(space.state_at(i)))
        return out

    def variables(self) -> frozenset[Var]:
        """Variables the predicate (syntactically) depends on; callables
        conservatively report the empty set and must be checked against a
        space explicitly."""
        return frozenset()

    def as_expr(self) -> Expr:
        """The backing boolean expression, if one exists.

        Raises :class:`PropertyError` for callable/mask-backed predicates —
        callers needing symbolic ``wp`` must use expression predicates.
        """
        raise PropertyError(f"predicate {self} has no symbolic expression form")

    def describe(self) -> str:
        """Human-readable rendering (used by proofs and reports)."""
        raise NotImplementedError

    # -- combinators ----------------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return _combine("and", self, _as_pred(other))

    def __rand__(self, other: "Predicate") -> "Predicate":
        return _combine("and", _as_pred(other), self)

    def __or__(self, other: "Predicate") -> "Predicate":
        return _combine("or", self, _as_pred(other))

    def __ror__(self, other: "Predicate") -> "Predicate":
        return _combine("or", _as_pred(other), self)

    def __invert__(self) -> "Predicate":
        return _negate(self)

    def implies(self, other: "Predicate") -> "Predicate":
        """Pointwise implication ``self ⇒ other``."""
        return _negate(self) | _as_pred(other)

    # -- semantic relations over a space ------------------------------------

    def entails(self, other: "Predicate", space: StateSpace) -> bool:
        """True iff ``self ⇒ other`` is valid over ``space``."""
        return bool(np.all(~self.mask(space) | _as_pred(other).mask(space)))

    def equivalent(self, other: "Predicate", space: StateSpace) -> bool:
        """True iff the two predicates have equal masks over ``space``."""
        return bool(np.array_equal(self.mask(space), _as_pred(other).mask(space)))

    def is_satisfiable(self, space: StateSpace) -> bool:
        """True iff some state of ``space`` satisfies the predicate."""
        return bool(self.mask(space).any())

    def witness(self, space: StateSpace) -> State | None:
        """Some satisfying state of ``space``, or ``None``."""
        mask = self.mask(space)
        hits = np.flatnonzero(mask)
        if hits.size == 0:
            return None
        return space.state_at(int(hits[0]))

    def count(self, space: StateSpace) -> int:
        """Number of satisfying states."""
        return int(self.mask(space).sum())

    # -- dunder -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"<Predicate {self.describe()}>"

    def __str__(self) -> str:
        return self.describe()


def _as_pred(p: Any) -> Predicate:
    if isinstance(p, Predicate):
        return p
    if isinstance(p, Expr):
        return ExprPredicate(p)
    if isinstance(p, (bool, np.bool_)):
        return TRUE if p else FALSE
    raise PropertyError(f"cannot treat {p!r} as a predicate")


class ExprPredicate(Predicate):
    """Predicate backed by a boolean expression."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        if expr.typ != "bool":
            raise PropertyError(
                f"predicate expression must be boolean, got {expr} : {expr.typ}"
            )
        self.expr = expr

    def holds(self, state: State) -> bool:
        return bool(self.expr.eval(state))

    def _mask_of(self, env: FrontierEnv) -> np.ndarray:
        return env.eval_bool(self.expr)

    def variables(self) -> frozenset[Var]:
        return self.expr.variables()

    def as_expr(self) -> Expr:
        return self.expr

    def describe(self) -> str:
        return str(self.expr)


class FnPredicate(Predicate):
    """Predicate backed by an arbitrary ``State → bool`` callable.

    Masks come from the base per-state loop; use for small spaces or
    one-off checks, and prefer :class:`MaskPredicate` (precomputed)
    otherwise.
    """

    __slots__ = ("fn", "_description")

    def __init__(self, fn: Callable[[State], bool], description: str) -> None:
        self.fn = fn
        self._description = description

    def holds(self, state: State) -> bool:
        return bool(self.fn(state))

    def describe(self) -> str:
        return self._description


class MaskPredicate(Predicate):
    """Predicate backed by a precomputed mask over one fixed space."""

    __slots__ = ("space", "_mask", "_description")

    def __init__(self, space: StateSpace, mask: np.ndarray, description: str) -> None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (space.size,):
            raise PropertyError(
                f"mask shape {mask.shape} does not match space size {space.size}"
            )
        self.space = space
        self._mask = mask
        self._description = description

    def holds(self, state: State) -> bool:
        return bool(self._mask[self.space.index_of(state)])

    def mask(self, space: StateSpace) -> np.ndarray:
        if space != self.space:
            raise PropertyError(
                "MaskPredicate consulted against a different state space"
            )
        return self._mask

    def mask_at(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        if space != self.space:
            raise PropertyError(
                "MaskPredicate consulted against a different state space"
            )
        return self._mask[np.asarray(idx, dtype=np.int64)]

    def describe(self) -> str:
        return self._description


class SupportPredicate(Predicate):
    """Predicate true exactly on a sorted set of member state indices.

    The sparse-tier counterpart of :class:`MaskPredicate`: instead of a
    length-``space.size`` boolean mask it stores the (typically tiny)
    sorted ``int64`` array of satisfying **global indices**, so it can
    describe subsets of spaces far beyond the dense capacity.  Membership
    queries (:meth:`holds`, :meth:`mask_at`) are binary searches; the
    full-mask path (:meth:`mask`) exists only for dense-capable spaces —
    it scatters the members and is guarded by
    :meth:`~repro.core.state.StateSpace.require_dense`, which is what the
    small-instance differential tests rely on.
    """

    __slots__ = ("space", "members", "_description")

    def __init__(
        self, space: StateSpace, members: np.ndarray, description: str
    ) -> None:
        members = np.asarray(members, dtype=np.int64)
        if members.ndim != 1:
            raise PropertyError("support members must be a 1-d index array")
        if members.size and (
            members[0] < 0
            or members[-1] >= space.size
            or np.any(members[1:] <= members[:-1])
        ):
            raise PropertyError(
                "support members must be strictly increasing indices "
                f"inside [0, {space.size})"
            )
        self.space = space
        self.members = members
        self._description = description

    def _check_space(self, space: StateSpace) -> None:
        if space != self.space:
            raise PropertyError(
                "SupportPredicate consulted against a different state space"
            )

    def holds(self, state: State) -> bool:
        i = self.space.index_of(state)
        pos = int(np.searchsorted(self.members, i))
        return pos < self.members.size and int(self.members[pos]) == i

    def mask(self, space: StateSpace) -> np.ndarray:
        self._check_space(space)
        space.require_dense("materializing a SupportPredicate mask")
        out = np.zeros(space.size, dtype=bool)
        out[self.members] = True
        return out

    def mask_at(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        self._check_space(space)
        idx = np.asarray(idx, dtype=np.int64)
        return in_sorted(self.members, idx)

    def count(self, space: StateSpace) -> int:
        self._check_space(space)
        return int(self.members.size)

    def is_satisfiable(self, space: StateSpace) -> bool:
        self._check_space(space)
        return self.members.size > 0

    def witness(self, space: StateSpace) -> State | None:
        self._check_space(space)
        if self.members.size == 0:
            return None
        return space.state_at(int(self.members[0]))

    def describe(self) -> str:
        return self._description


class PrefixSupportPredicate(SupportPredicate):
    """Support restricted to members ranked below a cutoff.

    A family of these shares one sorted ``members`` array and one
    parallel ``ranks`` array; predicate ``n`` is true exactly on the
    members with ``rank < n``.  This is the shape of the proof
    synthesizer's *exit ladder* — ``exit[n]`` is "some level below ``n``"
    — where building each rung as its own :class:`SupportPredicate` would
    cost a re-sorted prefix union per level (quadratic in certificate
    size).  Membership stays one binary search plus a rank gate.
    """

    __slots__ = ("ranks", "cutoff")

    def __init__(
        self,
        space: StateSpace,
        members: np.ndarray,
        ranks: np.ndarray,
        cutoff: int,
        description: str,
    ) -> None:
        super().__init__(space, members, description)
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.shape != self.members.shape:
            raise PropertyError(
                f"rank array shape {ranks.shape} does not match the "
                f"{self.members.shape[0]} support members"
            )
        self.ranks = ranks
        self.cutoff = int(cutoff)

    def holds(self, state: State) -> bool:
        i = self.space.index_of(state)
        pos = int(np.searchsorted(self.members, i))
        return (
            pos < self.members.size
            and int(self.members[pos]) == i
            and int(self.ranks[pos]) < self.cutoff
        )

    def mask(self, space: StateSpace) -> np.ndarray:
        self._check_space(space)
        space.require_dense("materializing a PrefixSupportPredicate mask")
        out = np.zeros(space.size, dtype=bool)
        out[self.members[self.ranks < self.cutoff]] = True
        return out

    def mask_at(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        self._check_space(space)
        idx = np.asarray(idx, dtype=np.int64)
        if self.members.size == 0:
            return np.zeros(idx.shape[0], dtype=bool)
        pos = np.searchsorted(self.members, idx)
        clipped = np.minimum(pos, self.members.size - 1)
        hit = (pos < self.members.size) & (self.members[clipped] == idx)
        return hit & (self.ranks[clipped] < self.cutoff)

    def count(self, space: StateSpace) -> int:
        self._check_space(space)
        return int((self.ranks < self.cutoff).sum())

    def is_satisfiable(self, space: StateSpace) -> bool:
        return self.count(space) > 0

    def witness(self, space: StateSpace) -> State | None:
        self._check_space(space)
        hits = np.flatnonzero(self.ranks < self.cutoff)
        if hits.size == 0:
            return None
        return space.state_at(int(self.members[int(hits[0])]))


class SupportTable:
    """Columnar layout for a family of disjoint support sets ("levels").

    The proof synthesizer's induction certificates used to carry one
    member array per level plus one shared sorted array for the exit
    ladder; this class makes that sharing explicit and *columnar*: every
    level's members live in **one** pair of parallel ``int64`` columns,

    - level-major (``stacked`` + CSR ``offsets``): level ``n``'s members
      are the slice ``stacked[offsets[n]:offsets[n+1]]``, sorted
      ascending — the layout segmented reductions want
      (:mod:`repro.semantics.obligations` reduces one flag per level per
      command over it);
    - globally sorted (``members`` + ``ranks``): the same entries ordered
      by state index with their level id alongside — the layout binary
      searches want (:class:`PrefixSupportPredicate` shares these arrays
      verbatim, so the whole exit ladder costs one table).

    Levels must be pairwise disjoint (their union strictly increasing),
    which is what makes the two orderings permutations of each other.
    :meth:`level_pred` / :meth:`prefix_pred` hand out zero-copy predicate
    views, so a certificate with 10⁵ levels stores two arrays, not 10⁵.
    """

    __slots__ = ("space", "stacked", "offsets", "members", "ranks")

    def __init__(self, space: StateSpace, level_members: list[np.ndarray]) -> None:
        counts = np.array(
            [np.asarray(m).shape[0] for m in level_members], dtype=np.int64
        )
        self.space = space
        self.offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
        self.stacked = (
            np.concatenate([np.asarray(m, dtype=np.int64) for m in level_members])
            if level_members
            else np.empty(0, dtype=np.int64)
        )
        order = np.argsort(self.stacked, kind="stable")
        self.members = self.stacked[order]
        if self.members.size and (
            self.members[0] < 0
            or self.members[-1] >= space.size
            or np.any(self.members[1:] <= self.members[:-1])
        ):
            raise PropertyError(
                "support-table levels must be disjoint sets of indices "
                f"inside [0, {space.size})"
            )
        self.ranks = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)[
            order
        ]

    @property
    def n_levels(self) -> int:
        return int(self.offsets.shape[0] - 1)

    @property
    def total(self) -> int:
        """Total member count across all levels."""
        return int(self.stacked.shape[0])

    def level_members(self, n: int) -> np.ndarray:
        """Members of level ``n`` (sorted; a zero-copy view)."""
        return self.stacked[self.offsets[n] : self.offsets[n + 1]]

    def level_pred(self, n: int, description: str) -> SupportPredicate:
        """Level ``n`` as a :class:`SupportPredicate` view."""
        return SupportPredicate(self.space, self.level_members(n), description)

    def prefix_pred(self, n: int, description: str) -> PrefixSupportPredicate:
        """"Some level below ``n``" as a rank-gated view of the shared
        sorted columns."""
        return PrefixSupportPredicate(
            self.space, self.members, self.ranks, n, description
        )


class _Composite(Predicate):
    """Conjunction/disjunction of mixed-flavour predicates."""

    __slots__ = ("op", "parts")

    def __init__(self, op: str, parts: tuple[Predicate, ...]) -> None:
        self.op = op
        self.parts = parts

    def holds(self, state: State) -> bool:
        if self.op == "and":
            return all(p.holds(state) for p in self.parts)
        return any(p.holds(state) for p in self.parts)

    def _mask_of(self, env: FrontierEnv) -> np.ndarray:
        out = env.mask_of(self.parts[0]).copy()
        for p in self.parts[1:]:
            if self.op == "and":
                out &= env.mask_of(p)
            else:
                out |= env.mask_of(p)
        return out

    def variables(self) -> frozenset[Var]:
        out: frozenset[Var] = frozenset()
        for p in self.parts:
            out |= p.variables()
        return out

    def as_expr(self) -> Expr:
        exprs = [p.as_expr() for p in self.parts]
        return land(*exprs) if self.op == "and" else lor(*exprs)

    def describe(self) -> str:
        sym = " /\\ " if self.op == "and" else " \\/ "
        return sym.join(f"({p.describe()})" for p in self.parts)


class _Negation(Predicate):
    """Pointwise negation of any predicate flavour."""

    __slots__ = ("inner",)

    def __init__(self, inner: Predicate) -> None:
        self.inner = inner

    def holds(self, state: State) -> bool:
        return not self.inner.holds(state)

    def _mask_of(self, env: FrontierEnv) -> np.ndarray:
        return ~env.mask_of(self.inner)

    def variables(self) -> frozenset[Var]:
        return self.inner.variables()

    def as_expr(self) -> Expr:
        return lnot(self.inner.as_expr())

    def describe(self) -> str:
        return f"~({self.inner.describe()})"


def _combine(op: str, a: Predicate, b: Predicate) -> Predicate:
    # Flatten nested composites of the same operator; merge expression
    # predicates into a single expression so symbolic wp stays available.
    if isinstance(a, ExprPredicate) and isinstance(b, ExprPredicate):
        if op == "and":
            return ExprPredicate(land(a.expr, b.expr))
        return ExprPredicate(lor(a.expr, b.expr))
    parts: list[Predicate] = []
    for p in (a, b):
        if isinstance(p, _Composite) and p.op == op:
            parts.extend(p.parts)
        else:
            parts.append(p)
    return _Composite(op, tuple(parts))


def _negate(p: Predicate) -> Predicate:
    if isinstance(p, ExprPredicate):
        return ExprPredicate(lnot(p.expr))
    if isinstance(p, _Negation):
        return p.inner
    return _Negation(p)


#: The always-true predicate.
TRUE = ExprPredicate(BoolConst(True))
#: The always-false predicate.
FALSE = ExprPredicate(BoolConst(False))


def forall_range(values: Iterable[Any], fn: Callable[[Any], Predicate]) -> Predicate:
    """Finite universal quantification: ``⋀_{v ∈ values} fn(v)``.

    The paper's specifications quantify over counter values ``k``; on finite
    domains that is a finite conjunction.
    """
    parts = [_as_pred(fn(v)) for v in values]
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = out & p
    return out


def exists_range(values: Iterable[Any], fn: Callable[[Any], Predicate]) -> Predicate:
    """Finite existential quantification: ``⋁_{v ∈ values} fn(v)``."""
    parts = [_as_pred(fn(v)) for v in values]
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = out | p
    return out
