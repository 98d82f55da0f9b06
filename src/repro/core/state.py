"""States and integer-encoded state spaces.

A :class:`State` is an immutable total assignment of values to a program's
variables.  A :class:`StateSpace` fixes an ordered tuple of variables and
provides the **mixed-radix codec** between states and dense integers
``0 … size-1``: with radices ``r_0 … r_{n-1}`` (domain sizes, in declaration
order) and row-major strides, state index
``= Σ_k  index_of(value_k) · stride_k``.

The codec is the foundation of the vectorized semantic engine
(:mod:`repro.semantics`): predicates become boolean NumPy masks indexed by
state index, and commands become ``int64`` successor tables.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from typing import Any

import numpy as np

from repro.core.variables import Var
from repro.errors import CapacityError, StateError

__all__ = ["State", "StateSpace", "FrontierEnv"]


class State(Mapping[Var, Any]):
    """An immutable total assignment ``Var → value``.

    ``State`` implements the ``Mapping`` protocol keyed by :class:`Var`, so
    it can be passed directly as the environment of
    :meth:`repro.core.expressions.Expr.eval`.
    """

    __slots__ = ("_values", "_hash")

    def __init__(self, values: Mapping[Var, Any]) -> None:
        checked = {}
        for var, val in values.items():
            if not isinstance(var, Var):
                raise StateError(f"state keys must be Vars, got {var!r}")
            checked[var] = var.check_value(val)
        self._values = checked
        self._hash: int | None = None

    # -- Mapping protocol -------------------------------------------------

    def __getitem__(self, var: Var) -> Any:
        return self._values[var]

    def __iter__(self) -> Iterator[Var]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    # -- functional update --------------------------------------------------

    def updated(self, changes: Mapping[Var, Any]) -> "State":
        """Return a new state with ``changes`` applied (others unchanged)."""
        for var in changes:
            if var not in self._values:
                raise StateError(
                    f"cannot update undeclared variable {var.name}"
                )
        merged = dict(self._values)
        merged.update(changes)
        return State(merged)

    def project(self, variables: Sequence[Var]) -> "State":
        """Restrict to the given variables (must all be present)."""
        try:
            return State({v: self._values[v] for v in variables})
        except KeyError as exc:
            raise StateError(f"variable {exc.args[0]} not in state") from None

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, State) and self._values == other._values

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                frozenset((v.name, val) for v, val in self._values.items())
            )
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{v.name}={val!r}"
            for v, val in sorted(self._values.items(), key=lambda kv: kv[0].name)
        )
        return f"State({inner})"


class StateSpace:
    """The finite cartesian product of the domains of an ordered variable tuple.

    Provides the dense codec ``State ↔ int`` plus cached, vectorized decoded
    value arrays per variable (``var_arrays``), which are the evaluation
    environment for :meth:`Expr.eval_vec`.

    Capacity is **per tier**, not per space: construction always succeeds
    (``size`` is an exact Python int, however astronomically composition
    multiplies it), while operations that materialize full-space arrays
    guard themselves with :meth:`require_dense` (cap :data:`DENSE_MAX`) and
    vectorized index kernels with :meth:`require_vector_indexable` (cap
    :data:`INDEX_MAX`).  The sparse tier (:mod:`repro.semantics.sparse`)
    works between those two caps without ever allocating ``size``-length
    arrays.

    A space also keeps, per command, the command's footprint step memo
    (see :meth:`repro.core.commands.Command.succ_of`): the successor
    index delta at every state of the command's footprint variables,
    sized by the footprint, never by ``size``, and dropped with the space.
    """

    __slots__ = ("vars", "_by_name", "size", "_strides", "_radices",
                 "_stride_by_var", "_value_cache", "_index_cache", "_step_cache")

    #: Capacity of the **dense** engine tiers: any operation that
    #: materializes a full-space array (decoded value columns, successor
    #: tables, boolean masks, graph backends) refuses spaces above this size via
    #: :meth:`require_dense`.  Construction itself is unbounded — encoded
    #: sizes are exact Python ints, and the sparse tier
    #: (:mod:`repro.semantics.sparse`) explores arbitrarily large products
    #: up to its ``node_limit`` on *discovered* states.
    DENSE_MAX = 64_000_000

    #: Largest encoded size whose state indices fit the vectorized ``int64``
    #: frontier kernels (``succ_of`` / ``mask_at`` / ``frontier_env``).
    #: Spaces beyond it can still be built and used through the scalar
    #: codec, but vectorized exploration refuses them.
    INDEX_MAX = 2**63 - 1

    def __init__(self, variables: Sequence[Var]) -> None:
        vars_t = tuple(variables)
        if not vars_t:
            raise StateError("a state space needs at least one variable")
        names = [v.name for v in vars_t]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise StateError(f"duplicate variable names in space: {dup}")
        self.vars = vars_t
        self._by_name = {v.name: v for v in vars_t}
        radices = [v.domain.size for v in vars_t]
        # Exact (arbitrary-precision) product: capacity is a per-tier
        # policy enforced at materialization points, not a constructor wall.
        size = 1
        for r in radices:
            size *= r
        self.size = size
        # Row-major strides: last declared variable varies fastest.
        strides = [0] * len(vars_t)
        acc = 1
        for k in range(len(vars_t) - 1, -1, -1):
            strides[k] = acc
            acc *= radices[k]
        self._strides = tuple(strides)
        self._radices = tuple(radices)
        self._stride_by_var = dict(zip(vars_t, strides))
        self._value_cache: dict[Var, np.ndarray] = {}
        self._index_cache: dict[Var, np.ndarray] = {}
        # command → its footprint step memo (repro.core.commands), built
        # lazily by ``Command.succ_in`` and dropped with the space.
        self._step_cache: dict[Any, Any] = {}

    # -- capacity policy ----------------------------------------------------

    def require_dense(self, operation: str = "this operation") -> None:
        """Refuse dense full-space materialization above :data:`DENSE_MAX`.

        Every dense-tier entry point (decoded value arrays, successor
        tables, graph backends, full-space masks) calls this before allocating
        anything of length ``size``.  Raises :class:`CapacityError` (a
        :class:`StateError`) whose message points at the sparse tier.
        """
        cap = self.DENSE_MAX
        if self.size > cap:
            raise CapacityError(
                f"{operation} materializes full-space arrays over "
                f"{self.size} encoded states (> the dense capacity "
                f"{cap}; see StateSpace.DENSE_MAX); route the query "
                "through the sparse tier (repro.semantics.sparse explores "
                "only discovered states, capped by node_limit), or shrink "
                "variable domains if the dense judgment is required"
            )

    def require_vector_indexable(self, operation: str = "this operation") -> None:
        """Refuse vectorized index kernels beyond the ``int64`` range.

        The frontier codec carries global state indices as ``int64``;
        spaces above :data:`INDEX_MAX` (2⁶³−1) can only use the scalar
        codec.  Raises :class:`CapacityError`.
        """
        if self.size > self.INDEX_MAX:
            raise CapacityError(
                f"{operation} carries encoded state indices as int64, but "
                f"the space has {self.size} states (> 2**63 - 1); only the "
                "scalar codec (index_of / state_at) works at this size"
            )

    # -- lookup -------------------------------------------------------------

    def var_named(self, name: str) -> Var:
        """Return the declared variable with this name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise StateError(f"no variable named {name!r} in space") from None

    def stride_of(self, var: Var) -> int:
        """Mixed-radix stride of ``var``."""
        try:
            return self._stride_by_var[var]
        except KeyError:
            raise StateError(f"variable {var.name} not in space") from None

    # -- scalar codec -------------------------------------------------------

    def index_of(self, state: Mapping[Var, Any]) -> int:
        """Encode a (total) state into its dense index."""
        idx = 0
        for var, stride in zip(self.vars, self._strides):
            try:
                value = state[var]
            except KeyError:
                raise StateError(
                    f"state does not assign variable {var.name}"
                ) from None
            idx += var.domain.index_of(value) * stride
        return idx

    def state_at(self, index: int) -> State:
        """Decode a dense index into a :class:`State`."""
        if not 0 <= index < self.size:
            raise StateError(f"state index {index} out of range [0, {self.size})")
        values = {}
        for var, stride, radix in zip(self.vars, self._strides, self._radices):
            values[var] = var.domain.value_at((index // stride) % radix)
        return State(values)

    def iter_states(self) -> Iterator[State]:
        """Iterate all states in index order (slow path; prefer masks)."""
        self.require_dense("iter_states")
        for i in range(self.size):
            yield self.state_at(i)

    # -- vectorized codec ---------------------------------------------------

    def index_arrays(self) -> dict[Var, np.ndarray]:
        """Per-variable arrays of *domain indices* at every state index."""
        if len(self._index_cache) != len(self.vars):
            self.require_dense("index_arrays")
            base = np.arange(self.size, dtype=np.int64)
            for var, stride, radix in zip(self.vars, self._strides, self._radices):
                if var not in self._index_cache:
                    self._index_cache[var] = (base // stride) % radix
        return self._index_cache

    def var_arrays(self) -> dict[Var, np.ndarray]:
        """Per-variable arrays of *values* at every state index.

        Decoded once per space and cached: these columns (with
        :meth:`index_arrays`) are what :meth:`full_env` hands the command
        and predicate kernels, so every whole-space table and mask shares
        one decode.
        """
        if len(self._value_cache) != len(self.vars):
            self.require_dense("var_arrays")
            idx = self.index_arrays()
            for var in self.vars:
                if var not in self._value_cache:
                    self._value_cache[var] = var.domain.decode_array(idx[var])
        return self._value_cache

    # -- kernel environments ------------------------------------------------

    def frontier_env(self, idx: np.ndarray) -> "FrontierEnv":
        """Lazy kernel environment over the index set ``idx``.

        Columns are decoded on first access and cached for the lifetime of
        the environment, so an expression touching 3 of 30 variables pays
        for 3 decodes and nothing of length ``size`` is allocated (the
        sparse engine, :mod:`repro.semantics.sparse`).  ``succ_of``,
        ``enabled_at`` and ``mask_at`` run their kernels on it.
        """
        return FrontierEnv(self, np.asarray(idx, dtype=np.int64))

    def full_env(self) -> "FrontierEnv":
        """Kernel environment over every state, the largest index set (a
        dense-tier operation): its columns are the cached
        :meth:`var_arrays` / :meth:`index_arrays`, so ``succ_table``,
        ``enabled_mask`` and ``mask`` decode nothing again."""
        return _EveryState(self)

    # -- misc -----------------------------------------------------------------

    def __repr__(self) -> str:
        inner = ", ".join(v.name for v in self.vars)
        return f"StateSpace({inner}; size={self.size})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StateSpace) and other.vars == self.vars

    def __hash__(self) -> int:
        return hash((StateSpace, self.vars))


class FrontierEnv(Mapping):
    """Per-variable columns of the states at an index set ``idx``, the
    environment of every command and predicate kernel: a ``Mapping`` of
    value columns for ``Expr.eval_vec`` plus :meth:`indices` (domain
    indices), each with ``rows`` entries and decoded on first access."""

    __slots__ = ("space", "idx", "rows", "_values", "_indices")

    def __init__(self, space: StateSpace, idx: np.ndarray) -> None:
        self.space = space
        self.idx = idx
        self.rows = int(idx.shape[0])
        self._values: dict[Var, np.ndarray] = {}
        self._indices: dict[Var, np.ndarray] = {}

    def __getitem__(self, var: Var) -> np.ndarray:
        col = self._values.get(var)
        if col is None:
            if var not in self.space._stride_by_var:
                raise KeyError(var)
            col = self._values[var] = var.domain.decode_array(self.indices(var))
        return col

    def indices(self, var: Var) -> np.ndarray:
        """Domain indices of ``var`` at these states."""
        col = self._indices.get(var)
        if col is None:
            stride = self.space.stride_of(var)
            col = self._indices[var] = (self.idx // stride) % var.domain.size
        return col

    def take(self, rows: np.ndarray) -> "FrontierEnv":
        """The states at positions ``rows`` of this environment; their
        columns are gathered from this environment's."""
        return _Rows(self, rows)

    def eval_bool(self, expr) -> np.ndarray:
        """A boolean expression at these states, one entry per state."""
        out = np.asarray(expr.eval_vec(self), dtype=bool)
        if out.ndim == 0:
            return np.full(self.rows, bool(out), dtype=bool)
        return out

    def mask_of(self, pred) -> np.ndarray:
        """``pred``'s truth values at these states (``pred.mask_at``)."""
        return pred.mask_at(self.space, self.idx)

    def __iter__(self) -> Iterator[Var]:
        return iter(self.space.vars)

    def __len__(self) -> int:
        return len(self.space.vars)


class _EveryState(FrontierEnv):
    """Every state of a dense space: the columns are the space's cached
    decodes, and predicates answer through their whole-space ``mask``."""

    __slots__ = ()

    def __init__(self, space: StateSpace) -> None:
        self.space = space
        self.rows = space.size
        self._values = space.var_arrays()
        self._indices = space.index_arrays()

    @property
    def idx(self) -> np.ndarray:
        return np.arange(self.rows, dtype=np.int64)

    def mask_of(self, pred) -> np.ndarray:
        return pred.mask(self.space)


class _Rows(FrontierEnv):
    """The states at some positions of a parent environment."""

    __slots__ = ("_parent", "_pos")

    def __init__(self, parent: FrontierEnv, rows: np.ndarray) -> None:
        self.space = parent.space
        self.rows = int(rows.shape[0])
        self._parent = parent
        self._pos = rows

    @property
    def idx(self) -> np.ndarray:
        return self._parent.idx[self._pos]

    def __getitem__(self, var: Var) -> np.ndarray:
        return self._parent[var][self._pos]

    def indices(self, var: Var) -> np.ndarray:
        return self._parent.indices(var)[self._pos]
