"""Model checking ``p ↝ q`` under weak fairness (fair-SCC analysis).

Semantics.  An execution repeatedly applies commands from ``C``; weak
fairness requires every command of ``D`` to be applied infinitely often
(commands are total and always enabled, so weak and unconditional fairness
coincide).  ``p ↝ q`` holds iff every fair execution starting from any
``p``-state reaches a ``q``-state.

Finite-state characterization.  ``p ↝ q`` fails iff some ``p``-state can
reach — inside ``¬q`` — a **fair SCC**: a strongly connected component
``H`` of the ``¬q``-restricted transition graph such that *every* ``d ∈ D``
has an edge with both endpoints in ``H``.

*Soundness:* inside a fair SCC the scheduler can tour all the required
``d``-edges forever (strong connectivity supplies the connecting walks, and
``skip ∈ C`` supplies waiting moves), yielding a fair execution that never
reaches ``q``.  *Completeness:* the limit set of any fair ``¬q``-confined
execution is strongly connected and, for each ``d ∈ D``, contains a state
whose ``d``-successor is also in the limit set (``d`` fires infinitely often
from finitely many states); hence the limit set lies inside a fair SCC,
which the start state therefore reaches.

The analysis returned by :func:`fair_scc_analysis` also drives the proof
synthesizer (:mod:`repro.semantics.synthesis`): in the complement region
every SCC misses some ``d ∈ D`` entirely, which is exactly a
``transient``/``ensures`` step of the paper's proof system.

Implementation.  All graph work (SCC condensation, reverse closure) runs on
the cached CSR backend (:mod:`repro.semantics.graph_backend`); the fair-SCC
criterion is evaluated **batched** over a stacked ``(command, state)`` edge
matrix — an edge ``s → d(s)`` is internal to its SCC iff
``comp_id[d(s)] == comp_id[s]`` — with a single segmented scatter into the
``(command, SCC)`` flag plane (:func:`_fair_flags`), instead of one
scatter round per command.  The same helper evaluates the strong-fairness
criterion (:mod:`repro.semantics.strong_fairness`) when handed enabledness
rows, and the sparse tier (:mod:`repro.semantics.sparse.checkers`) reuses
it verbatim over local successor columns.

Spaces above :data:`repro.semantics.sparse.SPARSE_THRESHOLD` route through
the sparse tier, which decides the reachable-restricted judgment without
allocating full-space arrays (see the :mod:`repro.semantics.sparse`
package docstring for the exact semantics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.semantics.checker import CheckResult
from repro.semantics.scc import Condensation
from repro.semantics.transition import TransitionSystem

__all__ = ["FairAnalysis", "fair_scc_analysis", "check_leadsto"]


@dataclass
class FairAnalysis:
    """Full fairness analysis of the ``¬q`` subgraph.

    Attributes
    ----------
    q_mask, notq_mask:
        Satisfaction masks of the target predicate and its complement.
    cond:
        SCC condensation of the ``¬q`` subgraph (emission order = sinks
        first; see :mod:`repro.semantics.scc`).
    fair_flags:
        ``fair_flags[k]`` — SCC ``k`` satisfies the fair-SCC criterion.
    avoid_mask:
        States that can reach a fair SCC inside ``¬q`` — exactly the states
        from which the scheduler can avoid ``q`` forever.
    safe_mask:
        ``¬q``-states from which ``q`` is inevitable
        (``notq_mask & ~avoid_mask``).
    """

    q_mask: np.ndarray
    notq_mask: np.ndarray
    cond: Condensation
    fair_flags: np.ndarray
    avoid_mask: np.ndarray

    @property
    def safe_mask(self) -> np.ndarray:
        return self.notq_mask & ~self.avoid_mask

    def inevitable_mask(self) -> np.ndarray:
        """States from which every fair execution reaches ``q``."""
        return ~self.avoid_mask

    def safe_components(self) -> list[tuple[int, np.ndarray]]:
        """``(comp_id, members)`` for SCCs in the safe region, in emission
        (sinks-first) order — the levels of the synthesized induction."""
        safe = np.flatnonzero(~self.avoid_mask[self.cond.first_members()])
        return [(int(k), self.cond.members_of(k)) for k in safe]


#: Byte budget of one stacked (command, state) chunk in :func:`_fair_flags`.
_FAIR_CHUNK_BYTES = 16 << 20


def _fair_seed_mask(cond: Condensation, fair_flags: np.ndarray) -> np.ndarray:
    """Mask of all states lying in a flagged SCC (vectorized gather)."""
    seeds = np.zeros(cond.comp_id.shape[0], dtype=bool)
    if fair_flags.any():
        active = cond.comp_id >= 0
        seeds[active] = fair_flags[cond.comp_id[active]]
    return seeds


def _fair_flags(
    cond: Condensation,
    tables: list[np.ndarray],
    enabled: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Per-SCC fairness flags, batched over all commands of ``D`` at once.

    ``tables`` are successor arrays over the graph's node set (full-space
    tables on the dense tier, local columns on the sparse tier).  The
    ``(command, state)`` internal-edge matrix is stacked per chunk and
    condensed in one pass into the ``(command, SCC)`` flag plane, with
    one ``all(axis=0)`` reduction per chunk instead of per-command
    flag-combination rounds.

    With ``enabled`` absent this is the *weak*-fairness criterion: SCC
    ``k`` keeps its flag iff every ``d ∈ D`` has an edge with both
    endpoints in ``k`` (disabled self-moves included).  With ``enabled``
    (one boolean row — or a zero-argument callable producing it — per
    command) it is the *strong* criterion: for every ``d``, either no
    member enables ``d``, or some member enables ``d`` with its
    ``d``-successor inside ``k``.  Callables are evaluated one at a time
    and only until the flags die, so full-space enabledness masks stream
    instead of being materialized up front.
    """
    count = cond.count
    ncmd = len(tables)
    if ncmd == 0 or count == 0:
        return np.ones(count, dtype=bool)
    act_idx = np.flatnonzero(cond.comp_id >= 0)
    comp_act = cond.comp_id[act_idx]
    # Chunk the command axis so the stacked matrix stays bounded (~16 MB)
    # on large dense spaces, and dead flag planes short-circuit between
    # chunks; typical |D| fits in one chunk, i.e. one segmented pass.
    chunk = max(1, _FAIR_CHUNK_BYTES // max(act_idx.shape[0], 1))
    flags = np.ones(count, dtype=bool)
    for lo in range(0, ncmd, chunk):
        rows = tables[lo:lo + chunk]
        internal = np.empty((len(rows), act_idx.shape[0]), dtype=bool)
        for r, table in enumerate(rows):
            internal[r] = cond.comp_id[table[act_idx]] == comp_act
        # Row-wise scatters into the (command, SCC) planes: internal is
        # mostly-True on liveness subgraphs (disabled commands self-loop),
        # so a matrix-wide nonzero would materialize int64 coordinate
        # arrays far larger than the bool chunk itself.
        if enabled is None:
            has_edge = np.zeros((len(rows), count), dtype=bool)
            for r in range(len(rows)):
                has_edge[r, comp_act[internal[r]]] = True
            flags &= has_edge.all(axis=0)
        else:
            # Per-row reduction with a short circuit: each enabledness
            # mask (possibly a lazy full-space evaluation) is built only
            # while some flag is still alive.
            for r, e in enumerate(enabled[lo:lo + chunk]):
                en_r = (e() if callable(e) else e)[act_idx]
                has_enabled = np.zeros(count, dtype=bool)
                has_enabled[comp_act[en_r]] = True
                honored = np.zeros(count, dtype=bool)
                honored[comp_act[internal[r] & en_r]] = True
                flags &= ~has_enabled | honored
                if not flags.any():
                    break
        if not flags.any():
            break
    return flags


def fair_scc_analysis(program: Program, q: Predicate) -> FairAnalysis:
    """Analyse the ``¬q`` subgraph of ``program`` for fair avoidance."""
    ts = TransitionSystem.for_program(program)
    space = ts.space
    graph = ts.graph()
    qm = q.mask(space)
    notq = ~qm
    cond = graph.condensation(notq)
    fair_flags = _fair_flags(cond, [t for _, t in ts.fair_tables()])
    seeds = _fair_seed_mask(cond, fair_flags)
    avoid = graph.reverse_closure(seeds, allowed=notq)
    return FairAnalysis(
        q_mask=qm, notq_mask=notq, cond=cond, fair_flags=fair_flags,
        avoid_mask=avoid,
    )


def check_leadsto(
    program: Program,
    p: Predicate,
    q: Predicate,
    *,
    budget=None,
    subspace=None,
    recorder=None,
    checkpoint=None,
) -> CheckResult:
    """Check ``p ↝ q`` under weak fairness of ``D``.

    ``budget`` / ``subspace`` / ``recorder`` form the normalized keyword
    set shared by every public checker (see ``docs/composition.md``):
    ``subspace`` forces the judgment onto an explicit reachable
    subspace, ``recorder`` installs a telemetry recorder for the call's
    duration.

    The witness of a failure contains a ``p``-state from which the
    scheduler can confine the execution to ``¬q`` forever, a state of the
    fair SCC it settles in, and ``witness["confining_path"]`` — a
    concrete shortest ``¬q``-confined walk from that ``p``-state into the
    fair SCC (on the sparse tier the witness additionally carries
    ``witness["path"]``, the BFS-parent command path showing the
    ``p``-state is reachable).

    Spaces above the sparse threshold are decided by the sparse tier over
    the reachable subspace (see :mod:`repro.semantics.sparse`); if the
    sparse tier cannot decide (non-expression ``initially``, reachable
    set above its ``node_limit``) the check falls back to the dense tier,
    which handles anything up to ``StateSpace.DENSE_MAX`` at dense memory
    cost — exactly the pre-sparse behaviour.  Beyond ``DENSE_MAX`` the
    fallback refuses with a :class:`~repro.errors.CapacityError` whose
    ``__cause__`` is the sparse failure.

    With a ``budget``, sparse-tier exhaustion degrades to a resumable
    ``status="unknown"`` :class:`~repro.semantics.budget.PartialResult`
    instead of raising (see ``docs/robustness.md``).
    """
    if recorder is not None:
        from repro import obs

        with obs.use_recorder(recorder):
            return check_leadsto(
                program, p, q, budget=budget, subspace=subspace,
                checkpoint=checkpoint,
            )
    space = program.space
    from repro.errors import ExplorationError
    from repro.semantics.sparse import dense_fallback, sparse_enabled

    if subspace is not None or sparse_enabled(space):
        from repro.semantics.sparse.checkers import check_leadsto_sparse

        try:
            return check_leadsto_sparse(
                program, p, q, budget=budget, subspace=subspace,
                checkpoint=checkpoint,
            )
        except ExplorationError as exc:
            dense_fallback(space, "check_leadsto", exc)
    subject = f"{p.describe()} ~> {q.describe()}"
    analysis = fair_scc_analysis(program, q)
    bad = p.mask(space) & analysis.avoid_mask
    idx = np.flatnonzero(bad)
    if idx.size == 0:
        return CheckResult(
            True, "leadsto", subject,
            message=(
                f"{int(analysis.safe_mask.sum())} ¬q-states are safe, "
                f"{int(analysis.avoid_mask.sum())} avoidable, none satisfy p"
            ),
        )
    i = int(idx[0])
    state = space.state_at(i)
    # Locate some fair SCC for the diagnostic, plus a concrete confining
    # path: a ¬q-confined walk from the violating p-state into a fair SCC
    # — the scheduler's avoidance strategy, state by state.
    fair_state = None
    fair = np.flatnonzero(analysis.fair_flags)
    if fair.size:
        fair_state = space.state_at(int(analysis.cond.members_of(fair[0])[0]))
    sources = np.zeros(space.size, dtype=bool)
    sources[i] = True
    confining = TransitionSystem.for_program(program).graph().path_between(
        sources,
        _fair_seed_mask(analysis.cond, analysis.fair_flags),
        allowed=analysis.notq_mask,
    )
    confining_states = (
        [space.state_at(int(s)) for s in confining]
        if confining is not None
        else [state]
    )
    return CheckResult(
        False,
        "leadsto",
        subject,
        message=(
            f"from p-state {state!r} the scheduler can avoid q forever "
            f"(e.g. settling near {fair_state!r})"
        ),
        witness={
            "state": state,
            "fair_scc_state": fair_state,
            "violations": int(idx.size),
            "confining_path": confining_states,
        },
    )
