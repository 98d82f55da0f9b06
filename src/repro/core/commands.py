"""UNITY-style commands: ``skip`` and guarded multi-assignments.

The paper's §2 model: *"A program consists of … a finite set C of commands
and a subset D of C of commands subjected to a weak fairness constraint …
The set C contains at least the command skip."*

Commands here are **total deterministic state functions** of two kinds:

- :class:`Skip` — identity;
- :class:`GuardedCommand` — a first-match ``if g₁ → A₁ ▯ g₂ → A₂ …``
  chain of guarded multi-assignments ``gᵢ → x₁,…,xₖ := e₁,…,eₖ``; when no
  guard holds the command behaves as ``skip`` (totality).  The paper's
  ``g → A`` is its one-branch case, ``GuardedCommand(name, g, A)``;
  :func:`AltCommand` builds one from a list of branches.

Each command supports three complementary semantics, cross-validated by the
test suite:

- ``apply(state)`` — operational, one state at a time (the oracle);
- one vectorized kernel per command kind, run over an index set:
  ``succ_of(space, idx)`` / ``enabled_at(space, idx)`` feed it a frontier
  environment (the sparse engine, :mod:`repro.semantics.sparse`; work and
  memory proportional to ``len(idx)``; ``succ_of`` turns into a gather
  from a per-space memo over the command's footprint once its kernel
  calls have paid for one), and ``succ_table(space)`` /
  ``enabled_mask(space)`` feed it every state, reading the space's cached
  decoded columns (the dense model checker);
- ``wp(pred)`` — *symbolic* weakest precondition by substitution, following
  the paper's ``p next q ≡ ⟨∀c : c ∈ C : p ⇒ wp.c.q⟩``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.domains import EnumDomain
from repro.core.expressions import (
    BoolConst,
    Const,
    Expr,
    land,
    lnot,
    lor,
)
from repro.core.predicates import ExprPredicate, Predicate
from repro.core.state import FrontierEnv, State, StateSpace
from repro.core.variables import Var
from repro.errors import CommandError, DomainError, ReproError

__all__ = ["Assignment", "Command", "Skip", "skip", "GuardedCommand", "AltCommand"]

#: States per chunk when a dense successor table is built.  Spaces at most
#: this large run the command kernel once over every state, reading the
#: cached ``var_arrays``/``index_arrays`` columns shared across commands;
#: larger spaces stream ``succ_of`` (the same kernel over a frontier
#: environment) over index ranges so peak scratch per command stays
#: bounded instead of several ``size``-length temporaries per assignment.
SUCC_TABLE_CHUNK = 1 << 22

#: What one frontier kernel call costs beyond its rows, in rows.  A call
#: runs a fixed chain of numpy operations: on a 2-CPU x86-64 host a
#: 16-row call takes about 50 µs and each further row 0.02 µs (pipeline
#: stages) to 0.17 µs (philosopher grid), so the fixed part is worth
#: 300-2,400 rows.  :class:`_FootprintStep` charges every kernel call its
#: rows plus this and builds its memo once the total reaches the
#: footprint size, so a memo costs about as much as the calls before it.
STEP_CALL_ROWS = 1024


class Assignment:
    """A single target of a multi-assignment: ``var := expr``."""

    __slots__ = ("var", "expr")

    def __init__(self, var: Var, expr: Expr | int | bool) -> None:
        if not isinstance(var, Var):
            raise CommandError(f"assignment target must be a Var, got {var!r}")
        if not isinstance(expr, Expr):
            from repro.core.expressions import const

            expr = const(expr)
        target_typ = var.ref().typ
        if expr.typ is None:
            # A bare enum label: validate against the target's domain.
            if not isinstance(target_typ, EnumDomain):
                raise CommandError(
                    f"cannot assign bare label {expr} to non-enum {var.name}"
                )
            assert isinstance(expr, Const)
            if not target_typ.contains(expr.value):
                raise CommandError(
                    f"label {expr.value!r} is not in {target_typ!r}"
                )
        elif expr.typ != target_typ:
            raise CommandError(
                f"type mismatch in {var.name} := {expr}: target is "
                f"{target_typ}, expression is {expr.typ}"
            )
        self.var = var
        self.expr = expr

    def _key(self) -> tuple:
        return (self.var.name, self.expr._key())

    def __repr__(self) -> str:
        return f"{self.var.name} := {self.expr}"


class Command:
    """Abstract base class of commands: a subclass gives one successor
    kernel (:meth:`_step`) and one enabledness kernel (:meth:`_enabled`),
    run on a frontier environment by ``succ_of``/``enabled_at`` and on
    every state by ``succ_table``/``enabled_mask``."""

    __slots__ = ("name", "origins")

    def __init__(self, name: str, origins: frozenset[str] = frozenset()) -> None:
        if not name:
            raise CommandError("commands must be named")
        self.name = name
        self.origins = origins

    # -- semantics ----------------------------------------------------------

    def apply(self, state: State) -> State:
        """The unique successor of ``state`` under this command."""
        raise NotImplementedError

    def wp(self, pred: Predicate) -> Predicate:
        """Symbolic weakest precondition (requires an expression predicate)."""
        raise NotImplementedError

    def succ_table(self, space: StateSpace) -> np.ndarray:
        """Vectorized ``apply``: ``out[i]`` is the successor index of state
        ``i`` for every encoded state of ``space``.

        A dense-tier operation: refuses spaces above
        ``StateSpace.DENSE_MAX`` with a :class:`~repro.errors.
        CapacityError`.  Spaces above :data:`SUCC_TABLE_CHUNK` stream
        :meth:`succ_of` over chunk-sized index ranges, so a table build
        never materializes more than one chunk of scratch at a time.
        """
        space.require_dense(f"successor table of command {self.name}")
        if space.size <= SUCC_TABLE_CHUNK:
            out = np.arange(space.size, dtype=np.int64)
            self._step(space.full_env(), out)
            return out
        out = np.empty(space.size, dtype=np.int64)
        for lo in range(0, space.size, SUCC_TABLE_CHUNK):
            hi = min(lo + SUCC_TABLE_CHUNK, space.size)
            out[lo:hi] = self.succ_of(space, np.arange(lo, hi, dtype=np.int64))
        return out

    def succ_of(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        """Frontier successor kernel: successor indices of the states in
        ``idx`` only (``== succ_table(space)[idx]``, without the table).

        The command reads and writes only its footprint
        (``reads() | writes()``), so each successor is its state's index
        plus a delta that depends on the footprint variables alone.  Once
        the kernel calls on ``space`` add up to the footprint's size (see
        :data:`STEP_CALL_ROWS`), the kernel runs once over every
        footprint state and later calls are one gather from that memo;
        a command whose kernel raises on some footprint state keeps the
        kernel path, so errors surface exactly as without the memo."""
        return self.succ_in(space.frontier_env(idx))

    def succ_in(self, env: FrontierEnv) -> np.ndarray:
        """:meth:`succ_of` on a kernel environment: callers that step
        several commands from one index set share one environment, so
        each footprint variable is decoded once for all of them."""
        memo = _FootprintStep.of(self, env.space)
        delta = memo.delta
        if delta is None:
            delta = memo.charge(self, env.rows)
        if delta is not None:
            return env.idx + delta[memo.position(env)]
        out = env.idx.copy()
        self._step(env, out)
        return out

    def enabled_mask(self, space: StateSpace) -> np.ndarray:
        """States where the command is *enabled* (some guard holds).

        Commands are total (disabled = skip), so enabledness never affects
        the §2 weak-fairness semantics; it exists for the strong-fairness
        ablation (:mod:`repro.semantics.strong_fairness`), where "enabled
        infinitely often" is the fairness trigger.
        """
        space.require_dense(f"enabledness mask of command {self.name}")
        return self._enabled(space.full_env())

    def enabled_at(self, space: StateSpace, idx: np.ndarray) -> np.ndarray:
        """Frontier form of :meth:`enabled_mask`: enabledness of the states
        in ``idx`` only (``== enabled_mask(space)[idx]``)."""
        return self._enabled(space.frontier_env(idx))

    def _step(self, env: FrontierEnv, out: np.ndarray) -> None:
        """The successor kernel: ``out`` holds the indices of the states of
        ``env``; move each to its successor's index, in place."""
        raise NotImplementedError

    def _enabled(self, env: FrontierEnv) -> np.ndarray:
        """The enabledness kernel: one flag per state of ``env``."""
        raise NotImplementedError

    # -- static analysis -----------------------------------------------------

    def reads(self) -> frozenset[Var]:
        """Variables whose value can influence the effect."""
        raise NotImplementedError

    def writes(self) -> frozenset[Var]:
        """Variables this command may modify."""
        raise NotImplementedError

    def is_skip(self) -> bool:
        """True iff this is the identity command."""
        return False

    # -- identity -------------------------------------------------------------

    def body_key(self) -> tuple:
        """Structural identity of the command *body* (name excluded).

        Program composition is a **set union** of commands (paper §2); two
        structurally identical commands contributed by different components
        are one element of the union.  ``body_key`` is that set's equality.
        """
        raise NotImplementedError

    def renamed(self, name: str) -> "Command":
        """Copy with a different name."""
        raise NotImplementedError

    def with_origins(self, origins: frozenset[str]) -> "Command":
        """Copy with the given provenance set."""
        out = self.renamed(self.name)
        out.origins = origins
        return out

    def __repr__(self) -> str:
        return f"<Command {self.name}: {self.describe()}>"

    def describe(self) -> str:
        """One-line rendering of the body."""
        raise NotImplementedError


class Skip(Command):
    """The identity command; every program's ``C`` contains it."""

    __slots__ = ()

    def __init__(self, name: str = "skip", origins: frozenset[str] = frozenset()) -> None:
        super().__init__(name, origins)

    def apply(self, state: State) -> State:
        return state

    def _step(self, env: FrontierEnv, out: np.ndarray) -> None:
        pass

    def wp(self, pred: Predicate) -> Predicate:
        return pred

    def _enabled(self, env: FrontierEnv) -> np.ndarray:
        # skip is always "enabled" (and always a no-op).
        return np.ones(env.rows, dtype=bool)

    def reads(self) -> frozenset[Var]:
        return frozenset()

    def writes(self) -> frozenset[Var]:
        return frozenset()

    def is_skip(self) -> bool:
        return True

    def body_key(self) -> tuple:
        return ("skip",)

    def renamed(self, name: str) -> "Skip":
        return Skip(name, self.origins)

    def describe(self) -> str:
        return "skip"


#: A shared default skip instance.
skip = Skip()


def _normalize_assignments(
    assignments: Sequence[Assignment | tuple[Var, Any]],
) -> tuple[Assignment, ...]:
    out: list[Assignment] = []
    for a in assignments:
        if isinstance(a, Assignment):
            out.append(a)
        else:
            var, expr = a
            out.append(Assignment(var, expr))
    seen: set[str] = set()
    for a in out:
        if a.var.name in seen:
            raise CommandError(f"duplicate assignment target {a.var.name}")
        seen.add(a.var.name)
    return tuple(out)


def _as_guard(guard: Expr | bool) -> Expr:
    if isinstance(guard, (bool, np.bool_)):
        return BoolConst(bool(guard))
    if not isinstance(guard, Expr) or guard.typ != "bool":
        raise CommandError(f"guard must be a boolean expression, got {guard!r}")
    return guard


def _subst_map(assignments: Sequence[Assignment]) -> dict[Var, Expr]:
    return {a.var: a.expr for a in assignments}


def _eval_updates(
    assignments: Sequence[Assignment], state: State, name: str
) -> dict[Var, Any]:
    updates: dict[Var, Any] = {}
    for a in assignments:
        value = a.expr.eval(state)
        if not a.var.domain.contains(value):
            raise DomainError(
                f"command {name}: {a.var.name} := {a.expr} evaluates to "
                f"{value!r}, outside {a.var.domain!r} — guard the command "
                "so it stays in range"
            )
        updates[a.var] = value
    return updates


def _fire(
    assignments: Sequence[Assignment],
    env: FrontierEnv,
    fire: np.ndarray,
    out: np.ndarray,
    name: str,
) -> None:
    """Move the entries of ``out`` (indices of ``env``'s states) where
    ``fire`` holds to their successors under ``assignments``, evaluating
    right-hand sides on those rows only, as ``apply`` does: a partial
    operator (``x // y``) never sees a state its guard excludes."""
    rows = fire.nonzero()[0]
    if rows.size == 0:
        return
    every = rows.size == env.rows
    sub = env if every else env.take(rows)
    delta = out if every else np.zeros(rows.size, dtype=np.int64)
    for a in assignments:
        rhs = np.asarray(a.expr.eval_vec(sub))
        if rhs.ndim == 0:
            rhs = np.full(rows.size, rhs[()])
        try:
            new_idx = a.var.domain.encode_array(rhs)
        except DomainError as exc:
            raise DomainError(
                f"command {name}: assignment {a.var.name} := {a.expr} "
                f"leaves the domain on some guarded state: {exc}"
            ) from None
        step = new_idx - sub.indices(a.var)
        step *= env.space.stride_of(a.var)
        delta += step
    if not every:
        out[rows] += delta


class _FootprintStep:
    """The step of one command on one space, memoized over its footprint.

    ``vars`` are the command's footprint variables in space order; a
    state's footprint position is ``Σ digit_v · fstride_v`` over them.
    ``delta[pos]`` is the global index change of the command at every
    state with that footprint position.  Until it is built, ``left``
    counts down the rows still to be charged (see :data:`STEP_CALL_ROWS`);
    ``left`` is infinite when the memo is never built: an empty
    footprint, one above :data:`SUCC_TABLE_CHUNK` states (a build is one
    kernel call over the footprint, so it keeps the scratch bound of one
    table chunk), or a kernel that raised on some footprint state.
    """

    __slots__ = ("vars", "fstrides", "strides", "left", "delta")

    def __init__(self, command: Command, space: StateSpace) -> None:
        footprint = command.reads() | command.writes()
        self.vars = tuple(v for v in space.vars if v in footprint)
        self.strides = tuple(space.stride_of(v) for v in self.vars)
        fstrides = [1] * len(self.vars)
        size = 1
        for k in range(len(self.vars) - 1, -1, -1):
            fstrides[k] = size
            size *= self.vars[k].domain.size
        self.fstrides = tuple(fstrides)
        self.delta: np.ndarray | None = None
        if not self.vars or size > SUCC_TABLE_CHUNK:
            self.left: float = math.inf
        else:
            self.left = size

    @staticmethod
    def of(command: Command, space: StateSpace) -> "_FootprintStep":
        """The memo of ``command`` on ``space`` (made on first use)."""
        memo = space._step_cache.get(command)
        if memo is None:
            memo = space._step_cache[command] = _FootprintStep(command, space)
        return memo

    def charge(self, command: Command, rows: int) -> np.ndarray | None:
        """Charge one kernel call of ``rows`` rows; the memo once built."""
        self.left -= rows + STEP_CALL_ROWS
        return None if self.left > 0 else self.publish(command)

    def publish(self, command: Command) -> np.ndarray | None:
        """Build the memo and publish it in one assignment (concurrent
        callers may both build it); a kernel that raises leaves the
        command on the kernel path for good."""
        delta = self.build(command)
        if delta is None:
            self.left = math.inf
        else:
            self.delta = delta
        return delta

    def build(self, command: Command) -> np.ndarray | None:
        """Run the command's kernel once over every footprint state and
        return the global index deltas (``None`` if the kernel raises)."""
        fspace = StateSpace(self.vars)
        env = fspace.frontier_env(np.arange(fspace.size, dtype=np.int64))
        out = env.idx.copy()
        try:
            command._step(env, out)
        except ReproError:  # DomainError, EvaluationError: the kernel path
            return None  # raises them on the states it actually steps
        delta = np.zeros(fspace.size, dtype=np.int64)
        for v, fs, stride in zip(self.vars, self.fstrides, self.strides):
            moved = (out // fs) % v.domain.size
            moved -= env.indices(v)
            moved *= stride
            delta += moved
        return delta

    def position(self, env: FrontierEnv) -> np.ndarray:
        """Footprint positions of ``env``'s states."""
        pos = None
        for v, fs in zip(self.vars, self.fstrides):
            digit = env.indices(v)
            if fs != 1:
                digit = digit * fs
            pos = digit if pos is None else pos + digit
        return pos


def step_memo(command: Command, space: StateSpace) -> _FootprintStep | None:
    """``command``'s footprint step memo on ``space``, built now if it is
    not yet; ``None`` when the command keeps the kernel path.  (Tests and
    the fuzzer's ``sparse-step-memo`` fault reach the memo through it.)"""
    memo = _FootprintStep.of(command, space)
    if memo.delta is None and memo.left != math.inf:
        memo.publish(command)
    return memo if memo.delta is not None else None


class GuardedCommand(Command):
    """A first-match guarded command: ``branches`` is a tuple of
    ``(guard, assignments)`` pairs read as
    ``if g₁ → A₁ ▯ g₂ → A₂ … else skip``.  The first branch whose guard
    holds fires; when none does the command behaves as ``skip``
    (totality).

    ``GuardedCommand(name, g, A)`` builds the one-branch command
    ``g → x₁,…,xₖ := e₁,…,eₖ``; :func:`AltCommand` builds one from a
    branch list.  Right-hand sides are evaluated simultaneously against
    the pre-state (UNITY multi-assignment semantics).
    """

    __slots__ = ("branches",)

    def __init__(
        self,
        name: str,
        guard: Expr | bool,
        assignments: Sequence[Assignment | tuple[Var, Any]],
        origins: frozenset[str] = frozenset(),
    ) -> None:
        super().__init__(name, origins)
        branch = (_as_guard(guard), _normalize_assignments(assignments))
        if not branch[1]:
            raise CommandError(
                f"command {name}: use Skip for commands with no assignments"
            )
        self.branches = (branch,)

    @property
    def guard(self) -> Expr:
        """The guard of a one-branch command."""
        return self._only_branch()[0]

    @property
    def assignments(self) -> tuple[Assignment, ...]:
        """The assignments of a one-branch command."""
        return self._only_branch()[1]

    def _only_branch(self) -> tuple[Expr, tuple[Assignment, ...]]:
        if len(self.branches) != 1:
            raise AttributeError(
                f"command {self.name} has {len(self.branches)} branches, "
                "not a single guard and assignment list"
            )
        return self.branches[0]

    def apply(self, state: State) -> State:
        for guard, assigns in self.branches:
            if guard.eval(state):
                return state.updated(_eval_updates(assigns, state, self.name))
        return state

    def _step(self, env: FrontierEnv, out: np.ndarray) -> None:
        # ``taken``: the states an earlier branch's guard already claimed.
        taken = None
        for guard, assigns in self.branches:
            g = env.eval_bool(guard)
            _fire(assigns, env, g if taken is None else g & ~taken, out, self.name)
            taken = g if taken is None else taken | g

    def wp(self, pred: Predicate) -> Predicate:
        # wp(if g₁ → A₁ ▯ g₂ → A₂ …, P) =
        #   (g₁ ∧ P[A₁]) ∨ (¬g₁ ∧ g₂ ∧ P[A₂]) ∨ … ∨ (¬g₁ ∧ ¬g₂ ∧ … ∧ P)
        p = pred.as_expr()
        disjuncts = []
        none_before: list[Expr] = []
        for guard, assigns in self.branches:
            sub = p.substitute(_subst_map(assigns))
            disjuncts.append(land(*none_before, guard, sub))
            none_before.append(lnot(guard))
        disjuncts.append(land(*none_before, p))  # no branch fires: skip
        return ExprPredicate(lor(*disjuncts))

    def _enabled(self, env: FrontierEnv) -> np.ndarray:
        out = None
        for guard, _ in self.branches:
            g = env.eval_bool(guard)
            out = g if out is None else out | g
        return out

    def reads(self) -> frozenset[Var]:
        out: set[Var] = set()
        for guard, assigns in self.branches:
            out |= guard.variables()
            for a in assigns:
                out |= a.expr.variables()
        return frozenset(out)

    def writes(self) -> frozenset[Var]:
        return frozenset(a.var for _, assigns in self.branches for a in assigns)

    def body_key(self) -> tuple:
        return (
            "guarded",
            tuple(
                (g._key(), tuple(sorted(a._key() for a in assigns)))
                for g, assigns in self.branches
            ),
        )

    def renamed(self, name: str) -> "GuardedCommand":
        return AltCommand(name, self.branches, self.origins)

    def branch_texts(self) -> list[str]:
        """Each branch as ``guard -> x := e || …``; a lone branch guarded
        by ``true`` is its assignments alone."""
        texts = []
        for guard, assigns in self.branches:
            body = " || ".join(repr(a) for a in assigns)
            guard_txt = str(guard)
            if guard_txt == "true" and len(self.branches) == 1:
                texts.append(body)
            else:
                texts.append(f"{guard_txt} -> {body}")
        return texts

    def describe(self) -> str:
        return "  [] ".join(self.branch_texts())


def AltCommand(
    name: str,
    branches: Sequence[tuple[Expr | bool, Sequence[Assignment | tuple[Var, Any]]]],
    origins: frozenset[str] = frozenset(),
) -> GuardedCommand:
    """The first-match alternative
    ``if g₁ → A₁ elif g₂ → A₂ … else skip`` as one
    :class:`GuardedCommand`; unlike the one-branch constructor, a branch
    may assign nothing (it then acts as ``skip`` on its states)."""
    cmd = GuardedCommand.__new__(GuardedCommand)
    Command.__init__(cmd, name, origins)
    if not branches:
        raise CommandError(f"command {name}: AltCommand needs branches")
    cmd.branches = tuple(
        (_as_guard(g), _normalize_assignments(assigns)) for g, assigns in branches
    )
    return cmd
