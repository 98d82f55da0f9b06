"""Sparse frontier exploration: reachable subspaces without full-space arrays.

Two pieces live here:

1. :func:`initial_indices` — enumerate the ``initially`` states of a
   program as **global state indices** directly from the predicate's
   conjunct structure, by a vectorized join over the declared variables:
   bind one variable at a time (cross product with its domain), and filter
   by every conjunct as soon as its variables are all bound.  Composed
   programs conjoin component ``initially`` predicates, so the join
   frontier stays near the true initial-state count instead of the encoded
   product.

2. :func:`explore` — BFS from the initial states through the per-command
   frontier steps (:meth:`repro.core.commands.Command.succ_in`, on one
   environment per level, so movers share each footprint decode), with
   sorted-array interning of discovered global indices (merge + binary
   search per level; Python work per BFS *level*, not per state).  The
   result is a :class:`ReachableSubspace`: sorted global ids (the local id
   of a state is its rank), per-command **local** successor columns, BFS
   distances, **BFS parents** (first-discovery edges, so every reachable
   state carries a concrete command path back to the initial set — the raw
   material of the witness paths attached by the checkers), and the local
   initial set — everything the graph backend over the local columns
   (:meth:`ReachableSubspace.graph`) and the judgments over the subspace
   (:mod:`repro.semantics.domain`) need.

Canonical-order invariant (documented; relied on by
:mod:`repro.semantics.synthesis`): ``global_ids`` is sorted ascending, so
local ids preserve the global index order.  The canonical sinks-first SCC
emission of :mod:`repro.semantics.scc` breaks ties by smallest member
node; because the order-preserving id map keeps "smallest member" the
same state on both tiers, the local condensation of the sub-CSR equals
the dense condensation restricted to reachable states *component for
component, in the same order* — which is exactly what lets the sparse
proof synthesizer reuse the emission order as its variant metric (cf.
the paper's §4.6 "induction on the cardinality of A*(i)").

No function in this module allocates an array of length ``space.size``;
all work is proportional to the reachable set and the frontier.
"""

from __future__ import annotations

import threading
import time
import traceback as _traceback
import weakref
from dataclasses import dataclass

import numpy as np

from repro import obs

from repro.core.commands import Command
from repro.core.expressions import And, Expr
from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.core.state import State, StateSpace
from repro.errors import (
    BudgetExhausted,
    CheckpointError,
    ExplorationError,
    PropertyError,
)
from repro.semantics.budget import Budget
from repro.semantics.judgments import MaskJudgments
from repro.util.csr import in_sorted, sorted_unique
from repro.util.faultinject import fault_point

__all__ = [
    "DEFAULT_NODE_LIMIT",
    "DEFAULT_JOIN_LIMIT",
    "initial_indices",
    "explore",
    "reachable_subspace",
    "adopt_subspace",
    "ReachableSubspace",
    "ExplorationFailure",
]

#: Default cap on the number of **discovered** reachable states.  This is
#: the sparse tier's protective wall — the per-tier replacement of the old
#: ``StateSpace`` constructor cap: encoded size is unbounded, the interned
#: node count is what costs memory.
DEFAULT_NODE_LIMIT = 2_000_000

#: Default cap on the intermediate width of the initial-state join.
DEFAULT_JOIN_LIMIT = 2_000_000


# ---------------------------------------------------------------------------
# Initial-state enumeration (vectorized conjunct join)
# ---------------------------------------------------------------------------


def _conjuncts(pred: Predicate) -> list[Expr]:
    """The top-level conjuncts of a predicate's expression form.

    Raises :class:`ExplorationError` for mask/callable-backed predicates —
    those only exist as full-space artifacts, which the sparse tier must
    not touch.
    """
    try:
        expr = pred.as_expr()
    except PropertyError:
        raise ExplorationError(
            "sparse exploration needs an expression-backed `initially` "
            f"predicate to enumerate initial states; got {pred.describe()!r}"
        ) from None
    if isinstance(expr, And):
        return list(expr.operands)
    return [expr]


def initial_indices(
    program: Program, *, join_limit: int = DEFAULT_JOIN_LIMIT
) -> np.ndarray:
    """Sorted global indices of the states satisfying ``initially``.

    The join binds variables in declaration order; a conjunct filters the
    partial assignments at the first point all of its variables are bound.
    The intermediate width is capped by ``join_limit``: conjuncts whose
    variables are declared far apart can make the intermediate product
    exceed the final set (raise the limit, or reorder declarations so
    related variables sit together).
    """
    space = program.space
    space.require_vector_indexable("sparse initial-state enumeration")
    conjuncts = [(c, c.variables()) for c in _conjuncts(program.init)]
    idx = np.zeros(1, dtype=np.int64)
    env: dict = {}
    bound: set = set()
    for var in space.vars:
        d = var.domain.size
        if idx.size * d > join_limit:
            raise ExplorationError(
                f"initial-state join exceeded {join_limit} partial "
                f"assignments while binding {var.name}; raise join_limit "
                "or tighten the `initially` predicate"
            )
        dom_idx = np.arange(d, dtype=np.int64)
        values = var.domain.decode_array(dom_idx)
        stride = space.stride_of(var)
        k = idx.size
        idx = (idx[:, None] + dom_idx[None, :] * stride).ravel()
        for v in bound:
            env[v] = np.repeat(env[v], d)
        env[var] = np.tile(values, k)
        bound.add(var)
        ready = [c for c in conjuncts if c[1] <= bound]
        if not ready:
            continue
        conjuncts = [c for c in conjuncts if not (c[1] <= bound)]
        # One conjunction: a guarded ``x // y`` never sees y = 0.
        keep = np.broadcast_to(
            np.asarray(And(*(c for c, _ in ready)).eval_vec(env), dtype=bool),
            idx.shape,
        )
        if not keep.all():
            idx = idx[keep]
            env = {v: a[keep] for v, a in env.items()}
        if idx.size == 0:
            break
    idx.sort()
    return idx


# ---------------------------------------------------------------------------
# Reachable subspace
# ---------------------------------------------------------------------------


class ReachableSubspace(MaskJudgments):
    """The reachable slice of a program's encoded space, on compact ids.

    Local id ``k`` denotes the state with global index ``global_ids[k]``;
    ``global_ids`` is sorted ascending, so local ids preserve the global
    order (which keeps the canonical SCC emission order of
    :mod:`repro.semantics.scc` identical to the dense tier's).

    The subspace references its program **weakly**: it may be held in the
    module's weak cache, and a strong back-reference would pin every
    explored program (and its successor columns and CSR caches) forever.
    Hold the :class:`Program` yourself while using the subspace.

    Attributes
    ----------
    space:
        The program's (never-materialized) state space.
    global_ids:
        Sorted ``int64`` global indices of the reachable states.
    dist:
        BFS distance (command applications from the initial set) per
        local id.
    init_local:
        Local ids of the initial states.
    levels:
        Number of BFS levels the exploration ran.
    parent:
        BFS parent per local id: the local id of the state whose command
        application first discovered it (``-1`` for the initial states).
        Following parents yields a shortest command path back to the
        initial set (:meth:`path_to_local` / :meth:`witness_path`).
    parent_cmd:
        Index into :attr:`mover_names` of the discovering command per
        local id (``-1`` for the initial states).
    mover_names:
        Names of the non-skip commands, in exploration order —
        the label namespace of :attr:`parent_cmd`.
    stats:
        Exploration statistics set by the BFS driver (nodes, levels,
        cumulative elapsed seconds and discovery rate — resumed runs
        include the checkpointed prefix's recorded elapsed time).
        Observational metadata only; empty for hand-built subspaces.
    """

    __slots__ = (
        "_program_ref",
        "space",
        "global_ids",
        "dist",
        "init_local",
        "levels",
        "parent",
        "parent_cmd",
        "mover_names",
        "stats",
        "_succ",
        "_enabled",
        "_graph",
        "__weakref__",
    )

    def __init__(
        self,
        program: Program,
        space: StateSpace,
        global_ids: np.ndarray,
        dist: np.ndarray,
        init_local: np.ndarray,
        levels: int,
        parent: np.ndarray | None = None,
        parent_cmd: np.ndarray | None = None,
        mover_names: tuple[str, ...] = (),
    ) -> None:
        self._program_ref = weakref.ref(program)
        self.space = space
        self.global_ids = global_ids
        self.dist = dist
        self.init_local = init_local
        self.levels = levels
        m = int(global_ids.shape[0])
        self.parent = parent if parent is not None else np.full(m, -1, dtype=np.int64)
        self.parent_cmd = (
            parent_cmd if parent_cmd is not None else np.full(m, -1, dtype=np.int64)
        )
        self.mover_names = mover_names
        self.stats: dict = {}
        self._succ: dict[str, np.ndarray] = {}
        self._enabled: dict[str, np.ndarray] = {}
        self._graph: object | None = None

    @property
    def program(self) -> Program:
        """The explored program (weakly referenced; see class docstring)."""
        program = self._program_ref()
        if program is None:
            raise ExplorationError(
                "the explored program has been garbage-collected; a "
                "ReachableSubspace does not keep its program alive"
            )
        return program

    @property
    def size(self) -> int:
        """Number of reachable states (the local space's size)."""
        return int(self.global_ids.shape[0])

    # -- id maps --------------------------------------------------------------

    def local_of(self, global_idx: np.ndarray) -> np.ndarray:
        """Map global state indices to local ids (must all be members)."""
        global_idx = np.asarray(global_idx, dtype=np.int64)
        local, kept = self.restrict(global_idx)
        if not kept.all():
            missing = global_idx[~kept][:3].tolist()
            raise ExplorationError(
                f"global indices {missing} are not in the reachable subspace"
            )
        return local

    def restrict(self, global_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(local ids, kept)`` for the members among ``global_idx``:
        entries outside the subspace are dropped, and ``kept`` marks the
        positions of ``global_idx`` that survive."""
        kept = in_sorted(self.global_ids, global_idx)
        return np.searchsorted(self.global_ids, global_idx[kept]), kept

    def state_at_local(self, k: int) -> State:
        """Decode local id ``k`` into a :class:`State`."""
        return self.space.state_at(int(self.global_ids[int(k)]))

    # -- witness paths ---------------------------------------------------------

    def path_to_local(self, k: int) -> list[int]:
        """Local ids of a shortest path from the initial set to ``k``.

        Reconstructed from the BFS parents; the first entry is an initial
        state, the last is ``k``, and consecutive entries are related by
        one command application (named by :meth:`witness_path`).
        """
        k = int(k)
        path = [k]
        while self.parent[path[-1]] >= 0:
            path.append(int(self.parent[path[-1]]))
            if len(path) > self.levels + 1:  # pragma: no cover - invariant
                raise ExplorationError("BFS parent chain exceeds level count")
        path.reverse()
        return path

    def witness_path(self, k: int) -> tuple[list[State], list[str]]:
        """Decoded shortest path from the initial set to local state ``k``.

        Returns ``(states, commands)`` with ``len(commands) ==
        len(states) - 1``: ``commands[i]`` is the command stepping
        ``states[i]`` to ``states[i + 1]``.
        """
        locs = self.path_to_local(k)
        states = [self.state_at_local(i) for i in locs]
        commands = [self.mover_names[int(self.parent_cmd[i])] for i in locs[1:]]
        return states, commands

    # -- per-command columns ---------------------------------------------------

    def succ_local(self, command: Command | str) -> np.ndarray:
        """Local successor column of one command (length ``size``).

        The reachable set is closed under every command, so the column is
        total: ``succ_local(c)[k]`` is the local id of ``c``'s successor of
        local state ``k``.
        """
        if isinstance(command, str):
            cmd = self.program.command_named(command)
        else:
            cmd = command
        col = self._succ.get(cmd.name)
        if col is None:
            if cmd.is_skip():
                col = np.arange(self.size, dtype=np.int64)
            else:
                col = self.local_of(cmd.succ_of(self.space, self.global_ids))
            self._succ[cmd.name] = col
        return col

    def enabled_local(self, command: Command | str) -> np.ndarray:
        """Local enabledness column of one command (length ``size``)."""
        if isinstance(command, str):
            cmd = self.program.command_named(command)
        else:
            cmd = command
        col = self._enabled.get(cmd.name)
        if col is None:
            col = cmd.enabled_at(self.space, self.global_ids)
            self._enabled[cmd.name] = col
        return col

    def enabled_at(self, command: Command | str, ids: np.ndarray) -> np.ndarray:
        """Enabledness of one command at the local ids ``ids``."""
        return self.enabled_local(command)[ids]

    # -- predicates ------------------------------------------------------------

    def pred_mask(self, pred: Predicate) -> np.ndarray:
        """Satisfaction mask of ``pred`` over the local ids."""
        return pred.mask_at(self.space, self.global_ids)

    # -- the rest of the domain protocol (see repro.semantics.domain) ----------

    label = "sparse tier"
    where = "reachable "

    def reachable_mask(self) -> np.ndarray:
        """Every local state is reachable."""
        return np.ones(self.size, dtype=bool)

    def to_global(self, local_ids: np.ndarray) -> np.ndarray:
        """Global indices of some local ids."""
        return self.global_ids[local_ids]

    def annotate(self, witness: dict, *, reachable=False, metrics=False) -> dict:
        """A verdict witness with this domain's extras.

        ``tier`` always; the reachable-state count on request; and the
        exploration stats only when a recorder is installed — with the
        null recorder the witness is byte-identical to the
        uninstrumented engine's, which the telemetry neutrality suite
        pins.
        """
        out = {"tier": "sparse", **witness}
        if reachable:
            out["reachable"] = self.size
        if metrics and obs.get_recorder().enabled and self.stats:
            out["metrics"] = dict(self.stats)
        return out

    # -- graph ----------------------------------------------------------------

    def graph(self):
        """The graph backend over local ids (built lazily, cached).

        A :class:`repro.semantics.graph_backend.GraphBackend` over the
        local successor columns of the non-skip commands, so every table
        walk and condensation kernel of the dense tier runs unchanged on
        the subspace.
        """
        if self._graph is None:
            from repro.semantics.graph_backend import GraphBackend

            self._graph = GraphBackend(
                self.size,
                [
                    self.succ_local(cmd)
                    for cmd in self.program.commands
                    if not cmd.is_skip()
                ],
            )
        return self._graph

    def __repr__(self) -> str:
        program = self._program_ref()
        name = program.name if program is not None else "<collected>"
        return (
            f"<ReachableSubspace {name}: {self.size} of "
            f"{self.space.size} states, {self.levels} BFS levels>"
        )


@dataclass
class _BfsState:
    """Mutable BFS progress — exactly what a checkpoint must capture.

    ``level_nodes[d]`` are the sorted global indices first discovered at
    distance ``d`` (``level_nodes[0]`` is the start set); ``level_parents``
    and ``level_pcmds`` are aligned per level with the *global* parent
    index and mover index that first produced each fresh state (``-1``
    for roots).  ``known`` is the sorted union of all levels — the intern
    table.  The level counter is ``len(level_nodes)``: no RNG, no clock,
    nothing ambient — which is what makes a resumed run bit-identical to
    an uninterrupted one.
    """

    level_nodes: list[np.ndarray]
    level_parents: list[np.ndarray]
    level_pcmds: list[np.ndarray]
    known: np.ndarray
    #: Wall seconds already spent on this state before the current run —
    #: restored from the checkpoint's metrics header on resume, so the
    #: cumulative statistics (elapsed, rate) span the whole exploration,
    #: not just the post-resume slice.  Observational only: it never
    #: feeds the BFS itself, which stays bit-identical on resume.
    elapsed_base: float = 0.0

    @property
    def levels(self) -> int:
        """Completed BFS levels (the RNG-free progress counter)."""
        return len(self.level_nodes)

    @property
    def explored(self) -> int:
        return int(self.known.shape[0])

    @property
    def frontier(self) -> np.ndarray:
        return self.level_nodes[-1]


def _assemble(program: Program, state: _BfsState, movers) -> ReachableSubspace:
    """Fold completed BFS levels into a :class:`ReachableSubspace`.

    Deterministic in the level structure alone, so assembling a resumed
    run yields arrays bit-identical to the uninterrupted exploration.
    """
    known = state.known
    m = known.shape[0]
    dist = np.full(m, -1, dtype=np.int64)
    parent = np.full(m, -1, dtype=np.int64)
    parent_cmd = np.full(m, -1, dtype=np.int64)
    for level, nodes in enumerate(state.level_nodes):
        if nodes.size:
            loc = np.searchsorted(known, nodes)
            dist[loc] = level
            pg = state.level_parents[level]
            has = pg >= 0
            if has.any():
                ploc = np.full(nodes.shape[0], -1, dtype=np.int64)
                ploc[has] = np.searchsorted(known, pg[has])
                parent[loc] = ploc
                parent_cmd[loc] = state.level_pcmds[level]
    start = state.level_nodes[0]
    return ReachableSubspace(
        program,
        program.space,
        known,
        dist,
        np.searchsorted(known, start) if m else start,
        state.levels,
        parent,
        parent_cmd,
        tuple(c.name for c in movers),
    )


def _run_bfs(
    program: Program,
    state: _BfsState,
    *,
    node_limit: int,
    budget: Budget | None = None,
    checkpoint=None,
) -> ReachableSubspace:
    """Drive the BFS loop from ``state`` to closure (the resumable core).

    ``budget`` bounds the run (deadline checked between per-command
    kernels, node/level budgets at level boundaries); on exhaustion a
    checkpoint is written (if a policy is active) and
    :class:`~repro.errors.BudgetExhausted` carries its path.
    ``checkpoint`` is a :class:`~repro.semantics.sparse.checkpoint.
    CheckpointPolicy`; snapshots are written atomically at level
    boundaries per its cadence, plus one final snapshot marked complete.
    """
    movers = [c for c in program.commands if not c.is_skip()]
    clock = budget.start() if budget is not None else None
    rec = obs.get_recorder()
    t_run = time.perf_counter()
    resumed_levels = state.levels

    def cumulative_elapsed() -> float:
        """Wall seconds across the whole exploration, resumed prefix
        included (the prefix's elapsed rides in the checkpoint header)."""
        return state.elapsed_base + (time.perf_counter() - t_run)

    def cumulative_rate() -> float:
        elapsed = cumulative_elapsed()
        return state.explored / elapsed if elapsed > 0 else 0.0

    def write_snapshot(*, complete: bool) -> str:
        from repro.semantics.sparse.checkpoint import write_checkpoint

        path = write_checkpoint(
            checkpoint.path,
            program,
            level_nodes=state.level_nodes,
            level_parents=state.level_parents,
            level_pcmds=state.level_pcmds,
            mover_names=[c.name for c in movers],
            complete=complete,
            metrics={
                "explored": state.explored,
                "levels": state.levels,
                "elapsed_s": round(cumulative_elapsed(), 6),
            },
        )
        return str(path)

    def exhaust(reason: str) -> None:
        path = write_snapshot(complete=False) if checkpoint is not None else None
        rate = cumulative_rate()
        frontier_size = int(state.frontier.shape[0])
        raise BudgetExhausted(
            f"exploration of {program.name} ran out of budget ({reason}) "
            f"after {state.levels} completed BFS level(s), "
            f"{state.explored} state(s), {clock.elapsed:.3f}s "
            f"(≈{rate:,.0f} states/s, last frontier {frontier_size})"
            + (f"; resume from {path}" if path else ""),
            reason=reason,
            explored=state.explored,
            levels=state.levels,
            elapsed=clock.elapsed,
            checkpoint_path=path,
            rate=rate,
            frontier=frontier_size,
        )

    frontier = state.frontier
    with rec.span("sparse.bfs", program=program.name, resumed_levels=resumed_levels):
        try:
            frontier = _bfs_loop(
                program,
                state,
                movers,
                frontier,
                node_limit=node_limit,
                clock=clock,
                checkpoint=checkpoint,
                exhaust=exhaust,
                write_snapshot=write_snapshot if checkpoint is not None else None,
                cumulative_elapsed=cumulative_elapsed,
            )
        except KeyboardInterrupt:
            # Interrupted mid-run: salvage the completed levels.  A partially
            # recorded level (the interrupt can land between the per-level
            # appends) is dropped before the snapshot, so the checkpoint is
            # always a consistent level-boundary state — never half a level.
            if checkpoint is not None:
                n = len(state.level_nodes)
                del state.level_parents[n:]
                del state.level_pcmds[n:]
                write_snapshot(complete=False)
            raise
        if checkpoint is not None:
            write_snapshot(complete=True)
        sub = _assemble(program, state, movers)
    _set_stats(sub, cumulative_elapsed(), resumed_levels)
    if rec.enabled:
        rec.heartbeat(
            phase="sparse.bfs",
            level=sub.levels,
            nodes=sub.size,
            rate=f"{sub.stats['rate']:,.0f}/s",
            final=True,
        )
    return sub


def _set_stats(sub: ReachableSubspace, elapsed: float, resumed_levels: int) -> None:
    """Exploration statistics; ``elapsed`` includes a resumed prefix."""
    sub.stats = {
        "nodes": sub.size,
        "levels": sub.levels,
        "elapsed_s": round(elapsed, 6),
        "rate": round(sub.size / elapsed if elapsed > 0 else 0.0, 3),
    }
    if resumed_levels > 1:
        sub.stats["resumed_levels"] = resumed_levels


def _bfs_loop(
    program: Program,
    state: _BfsState,
    movers,
    frontier: np.ndarray,
    *,
    node_limit: int,
    clock,
    checkpoint,
    exhaust,
    write_snapshot,
    cumulative_elapsed=None,
):
    """The level loop of :func:`_run_bfs` (split out so the interrupt
    handler in the driver sees every exit path uniformly).

    Instrumentation is observation-only: every counter, span, and
    heartbeat reads BFS state without influencing it, so recorder-on and
    recorder-off runs intern bit-identical subspaces (pinned by
    ``tests/test_obs.py``).
    """
    space = program.space
    rec = obs.get_recorder()
    last_write_level = state.levels
    while frontier.size:
        fault_point(
            "sparse.explore.level", level=state.levels, explored=state.explored
        )
        if clock is not None:
            reason = clock.exhausted(explored=state.explored, levels=state.levels)
            if reason is not None:
                exhaust(reason)
        deadline = None if clock is None else clock.budget.deadline
        with rec.span(
            "sparse.bfs.level", level=state.levels, frontier=int(frontier.shape[0])
        ):
            # One environment per level: each footprint variable of the
            # frontier is decoded once and shared by every mover.
            env = space.frontier_env(frontier)
            cols = []
            k0 = time.perf_counter()
            for cmd in movers:
                cols.append(cmd.succ_in(env))
                # Deadline granularity is per command kernel, not per level:
                # an aborted level is discarded whole, so the checkpoint (and
                # the exhaustion statistics) reflect completed levels only.
                if deadline is not None and clock.elapsed > deadline:
                    exhaust("deadline")
            if not cols:
                break
            if rec.enabled:
                rec.add("kernel.succ_of.seconds", time.perf_counter() - k0)
                rec.add("kernel.succ_of.calls", len(cols))
            fault_point(
                "sparse.explore.alloc",
                level=state.levels,
                entries=frontier.shape[0] * len(cols),
            )
            all_succ = np.concatenate(cols)
            # One stable sort gives the distinct successors and, per value,
            # its first entry in (command order, frontier order): the
            # first-discovery edge, which pins the witness paths.
            order = np.argsort(all_succ, kind="stable")
            ranked = all_succ[order]
            head = np.empty(ranked.shape[0], dtype=bool)
            head[0] = True
            np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
            cand, first = ranked[head], order[head]
            new = ~in_sorted(state.known, cand)
            fresh, first = cand[new], first[new]
            if fresh.size == 0:
                break
            # Both arrays are sorted and disjoint: a positional insert is the
            # O(m) merge (no per-level re-sort of the whole intern table).
            state.known = np.insert(
                state.known, np.searchsorted(state.known, fresh), fresh
            )
            if state.known.size > node_limit:
                raise ExplorationError(
                    f"reachable exploration of {program.name} exceeded "
                    f"node_limit={node_limit} (encoded space {space.size}); "
                    "raise the limit if the workload is expected"
                )
            # Entry k of the stacked columns is command k // F's successor
            # of frontier state k % F.
            mover, row = np.divmod(first, frontier.shape[0])
            state.level_parents.append(frontier[row])
            state.level_pcmds.append(mover)
            state.level_nodes.append(fresh)
            if rec.enabled:
                rec.add("sparse.bfs.levels")
                rec.add("sparse.bfs.nodes", int(fresh.shape[0]))
                rec.add("sparse.bfs.succ_entries", int(all_succ.shape[0]))
                rec.gauge_max(
                    "sparse.bfs.peak_bytes",
                    int(state.known.nbytes + all_succ.nbytes * 2),
                )
                beat = {
                    "level": state.levels - 1,
                    "nodes": state.explored,
                    "frontier": int(fresh.shape[0]),
                }
                if cumulative_elapsed is not None:
                    elapsed = cumulative_elapsed()
                    if elapsed > 0:
                        beat["rate"] = f"{state.explored / elapsed:,.0f}/s"
                if deadline is not None:
                    beat["budget_left"] = f"{max(deadline - clock.elapsed, 0.0):.1f}s"
                rec.heartbeat(**beat)
            frontier = fresh
        if checkpoint is not None and checkpoint.due(
            levels_since=state.levels - last_write_level
        ):
            write_snapshot(complete=False)
            last_write_level = state.levels
    return frontier


def explore(
    program: Program,
    *,
    seeds: np.ndarray | None = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
    join_limit: int = DEFAULT_JOIN_LIMIT,
    budget: Budget | None = None,
    checkpoint=None,
) -> ReachableSubspace:
    """BFS-expand the reachable subspace of ``program``.

    ``seeds`` overrides the start set (global indices; default: the sparse
    enumeration of ``initially``).  Raises :class:`ExplorationError` when
    the discovered set exceeds ``node_limit`` (default
    :data:`DEFAULT_NODE_LIMIT`) —
    the sparse tier's only **hard** size wall: the *encoded* space is
    unbounded up to the ``int64`` index range.

    ``budget`` bounds the run softly (see :class:`~repro.semantics.
    budget.Budget`): on exhaustion the exploration raises
    :class:`~repro.errors.BudgetExhausted` — resumable, not fail-closed.
    ``checkpoint`` takes a :class:`~repro.semantics.sparse.checkpoint.
    CheckpointPolicy`; BFS state is snapshotted atomically at level
    boundaries per its cadence (plus once on budget exhaustion and once,
    marked complete, at closure), and
    :func:`~repro.semantics.sparse.checkpoint.resume_exploration`
    round-trips bit-identically with an uninterrupted run.
    """
    space = program.space
    space.require_vector_indexable("sparse exploration")
    if seeds is None:
        start = initial_indices(program, join_limit=join_limit)
    else:
        start = sorted_unique(np.asarray(seeds, dtype=np.int64))
        if start.size and (start[0] < 0 or start[-1] >= space.size):
            raise ExplorationError(f"seed indices outside [0, {space.size})")
    if start.size > node_limit:
        raise ExplorationError(
            f"start set of {program.name} already exceeds "
            f"node_limit={node_limit}"
        )
    state = _BfsState(
        level_nodes=[start],
        level_parents=[np.full(start.shape[0], -1, dtype=np.int64)],
        level_pcmds=[np.full(start.shape[0], -1, dtype=np.int64)],
        known=start,
    )
    return _run_bfs(
        program, state, node_limit=node_limit, budget=budget, checkpoint=checkpoint
    )


@dataclass(frozen=True)
class ExplorationFailure:
    """Structured record of a cached sparse-tier failure.

    The negative cache must not hold the exception object itself (its
    traceback would strongly pin the program and every array hanging off
    it), but a bare message string loses the original raise site and any
    checkpoint the failed run left behind.  This record keeps both as
    plain strings: re-raises carry it as ``exc.failure``.
    """

    message: str
    exc_type: str
    traceback: str
    checkpoint_path: str | None = None


#: Weak per-program cache of the default exploration.  Values are either
#: the :class:`ReachableSubspace` or, for programs the sparse tier cannot
#: decide, an :class:`ExplorationFailure` (a negative entry — structured
#: strings only, never the exception object, whose traceback would
#: strongly pin the program).
_CACHE: "weakref.WeakKeyDictionary[Program, ReachableSubspace | ExplorationFailure]" = weakref.WeakKeyDictionary()

#: Per-program exploration locks (single-flight): concurrent
#: ``reachable_subspace`` callers that miss the cache must share ONE
#: BFS, not race N identical explorations — the certification service
#: routes many threads at the same program on a cold start.  Weak keys
#: so the lock table never pins a program.
_EXPLORE_LOCKS: "weakref.WeakKeyDictionary[Program, threading.Lock]" = weakref.WeakKeyDictionary()
_LOCKS_GUARD = threading.Lock()


def _explore_lock(program: Program) -> threading.Lock:
    with _LOCKS_GUARD:
        lock = _EXPLORE_LOCKS.get(program)
        if lock is None:
            lock = threading.Lock()
            _EXPLORE_LOCKS[program] = lock
        return lock


def adopt_subspace(program: Program, sub: ReachableSubspace) -> None:
    """Publish a completed exploration as ``program``'s cached subspace.

    Used by :func:`~repro.semantics.sparse.checkpoint.resume_exploration`
    so that checks routed after a resume reuse the resumed work instead
    of re-exploring from scratch.  Overwrites any negative entry.
    """
    _CACHE[program] = sub


def reachable_subspace(
    program: Program,
    *,
    budget: Budget | None = None,
    checkpoint=None,
) -> ReachableSubspace:
    """The (weakly) cached default exploration of ``program``.

    Mirrors ``TransitionSystem.for_program``: repeated sparse checks — the
    normal mode for the paper's proof chains — share one exploration.
    Failures are cached too (as structured negative entries, see
    :class:`ExplorationFailure`), so a proof chain over a program the
    sparse tier cannot decide pays the doomed BFS once, not once per
    routed check, before each check's dense fallback.

    A miss with a ``checkpoint`` policy first resumes the snapshot at its
    path (a complete one loads without a BFS level or a write, so it
    satisfies any ``budget``); one refused with any ``CheckpointError``
    counts as absent, and :func:`explore` replaces it.
    :class:`~repro.errors.BudgetExhausted` is **not** cached: running
    out of budget is transient, not a property of the program.

    Thread safety: misses are **single-flight** per program — concurrent
    callers serialize on a per-program lock, the first runs the BFS, the
    rest find its published result on wake-up.  (Cache publication via
    :func:`adopt_subspace` is a plain dict store under the GIL; the lock
    exists to prevent N identical explorations, not to protect the
    dict.)
    """
    rec = obs.get_recorder()
    cached = _CACHE.get(program)
    if isinstance(cached, ReachableSubspace):
        if rec.enabled:
            rec.add("sparse.subspace_cache.hits")
        return cached
    with _explore_lock(program):
        # Re-check under the lock: a concurrent caller may have finished
        # (or failed) this exploration while we waited.
        cached = _CACHE.get(program)
        if isinstance(cached, ReachableSubspace):
            if rec.enabled:
                rec.add("sparse.subspace_cache.hits")
            return cached
        if rec.enabled:
            rec.add("sparse.subspace_cache.misses")
        if cached is not None:
            err = ExplorationError(
                f"{cached.message} (cached sparse-tier failure; the original "
                "traceback is preserved on this exception's .failure record)"
            )
            err.failure = cached
            raise err
        try:
            sub = _resume_or_explore(program, budget, checkpoint)
        except ExplorationError as exc:
            _CACHE[program] = ExplorationFailure(
                message=str(exc),
                exc_type=type(exc).__name__,
                traceback="".join(_traceback.format_exception(exc)),
                checkpoint_path=getattr(exc, "checkpoint_path", None),
            )
            raise
        _CACHE[program] = sub
        return sub


def _resume_or_explore(program: Program, budget, checkpoint) -> ReachableSubspace:
    if checkpoint is not None:
        from repro.semantics.sparse.checkpoint import resume_exploration

        try:
            return resume_exploration(
                checkpoint.path, program, budget=budget, checkpoint=checkpoint
            )
        except CheckpointError:
            pass  # absent, damaged or another program's: explore afresh
    return explore(program, budget=budget, checkpoint=checkpoint)
