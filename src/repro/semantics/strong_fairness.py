"""Ablation: leads-to under **strong** fairness.

The paper's §2 model uses *weak* fairness: every command of ``D`` is
**executed** infinitely often — and since commands are total, an execution
whose guard is false is a legal no-op.  This has a consequence worth
isolating: a helpful command can be "starved" by always scheduling it while
its guard is off (see ``tests/test_leadsto.py::
test_weak_fairness_counts_vacuous_executions``).

This module checks the same ``p ↝ q`` judgment under **strong** fairness:

    if ``d ∈ D`` is *enabled* (some guard true) infinitely often, then
    ``d`` is executed *while enabled* infinitely often.

Finite-state characterization (an SCC criterion again, but per-command
three-valued): an SCC ``H`` of the ``¬q`` graph hosts a strongly-fair
``¬q``-confined execution iff for every ``d ∈ D`` **either**

- no state of ``H`` enables ``d`` (the premise of the fairness obligation
  never recurs), **or**
- some ``u ∈ H`` enables ``d`` with ``succ_d(u) ∈ H`` (the obligation can
  be honoured without leaving ``H``).

Strong fairness validates strictly more leads-to properties than weak
(every weakly-fair-avoidable SCC is strongly-fair-avoidable only if it
passes the stricter test).  The ablation benchmark
(``benchmarks/bench_fairness_ablation.py``) quantifies the gap on the
paper's systems: the §4 mechanism is insensitive (its yield guards are
exactly the priority states, which persist until served — making weak
fairness as good as strong), which is an implicit design property of the
paper's solution that the ablation makes visible.
"""

from __future__ import annotations

import numpy as np

from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.semantics.checker import CheckResult
from repro.semantics.leadsto import FairAnalysis, _fair_flags, _fair_seed_mask
from repro.semantics.transition import TransitionSystem

__all__ = [
    "strong_fair_scc_analysis",
    "check_leadsto_strong",
    "check_transient_strong",
    "fairness_gap",
]


def strong_fair_scc_analysis(program: Program, q: Predicate) -> FairAnalysis:
    """Like :func:`repro.semantics.leadsto.fair_scc_analysis` but with the
    strong-fairness SCC criterion.

    Evaluated batched over the stacked ``(command, state)`` edge matrix
    (:func:`repro.semantics.leadsto._fair_flags` with enabledness rows):
    an SCC stays fair iff for every ``d`` it either never enables ``d`` or
    contains an enabled ``d``-move staying inside the SCC.
    """
    ts = TransitionSystem.for_program(program)
    space = ts.space
    graph = ts.graph()
    qm = q.mask(space)
    notq = ~qm
    cond = graph.condensation(notq)
    fair_cmds = program.fair_commands
    # Enabledness rows stream lazily: each full-space mask is built only
    # when its chunk is reached, and not at all once the flags die.
    fair_flags = _fair_flags(
        cond,
        [ts.tables[cmd.name] for cmd in fair_cmds],
        enabled=[
            (lambda c=cmd: c.enabled_mask(space)) for cmd in fair_cmds
        ],
    )
    seeds = _fair_seed_mask(cond, fair_flags)
    avoid = graph.reverse_closure(seeds, allowed=notq)
    return FairAnalysis(
        q_mask=qm, notq_mask=notq, cond=cond, fair_flags=fair_flags,
        avoid_mask=avoid,
    )


def check_transient_strong(program: Program, p: Predicate) -> CheckResult:
    """``p`` is transient under **strong** fairness of ``D``.

    Finite-state criterion, dual to the per-SCC avoidance test above: no
    SCC of the ``p``-subgraph passes the strong-fairness test — every
    component has a helpful ``d ∈ D`` that some member enables and that
    exits the component from *every* member enabling it, so a
    strongly-fair execution must keep descending the condensation DAG
    until it leaves ``p``.  This is the semantic leaf behind
    :class:`repro.core.rules.StrongTransientBasis`, the rule the proof
    synthesizer uses to certify strong-fairness leads-to verdicts (e.g.
    the pipeline∘allocator delivery property, which *fails* under weak
    fairness).

    Spaces above the sparse threshold are decided reachable-restricted by
    :func:`repro.semantics.sparse.checkers.check_transient_strong_sparse`.
    """
    from repro.semantics.checker import _try_sparse

    routed = _try_sparse(
        program, "check_transient_strong_sparse", (p,), "check_transient_strong"
    )
    if routed is not None:
        return routed
    ts = TransitionSystem.for_program(program)
    space = ts.space
    subject = f"transient[strong] {p.describe()}"
    pm = p.mask(space)
    if not pm.any():
        return CheckResult(
            True, "transient-strong", subject,
            message="p is unsatisfiable (vacuously transient)",
        )
    fair_cmds = program.fair_commands
    cond = ts.graph().condensation(pm)
    flags = _fair_flags(
        cond,
        [ts.tables[cmd.name] for cmd in fair_cmds],
        enabled=[
            (lambda c=cmd: c.enabled_mask(space)) for cmd in fair_cmds
        ],
    )
    hit = np.flatnonzero(flags)
    if hit.size == 0:
        return CheckResult(
            True, "transient-strong", subject,
            message=(
                f"every SCC of the p-subgraph ({cond.count} component(s)) "
                "has an enabled exiting fair command"
            ),
            witness={"components": cond.count},
        )
    state = space.state_at(int(cond.members_of(hit[0])[0]))
    return CheckResult(
        False, "transient-strong", subject,
        message=(
            "a strongly-fair execution can stay inside p forever "
            f"(e.g. in the component of {state!r})"
        ),
        witness={"state": state, "fair_components": int(hit.size)},
    )


def check_leadsto_strong(
    program: Program,
    p: Predicate,
    q: Predicate,
    *,
    budget=None,
    subspace=None,
    recorder=None,
    checkpoint=None,
) -> CheckResult:
    """Check ``p ↝ q`` assuming **strong** fairness of ``D``.

    ``budget`` / ``subspace`` / ``recorder`` form the normalized keyword
    set shared by every public checker (see ``docs/composition.md``).

    Spaces above the sparse threshold are decided by the sparse tier over
    the reachable subspace (see :mod:`repro.semantics.sparse`), falling
    back to the dense tier when the sparse tier cannot decide (the
    :class:`~repro.errors.CapacityError` of an impossible fallback chains
    the sparse failure as ``__cause__``).  With a ``budget``, sparse-tier
    exhaustion degrades to a resumable ``status="unknown"``
    :class:`~repro.semantics.budget.PartialResult` instead of raising.
    """
    if recorder is not None:
        from repro import obs

        with obs.use_recorder(recorder):
            return check_leadsto_strong(
                program, p, q, budget=budget, subspace=subspace,
                checkpoint=checkpoint,
            )
    space = program.space
    from repro.errors import ExplorationError
    from repro.semantics.sparse import dense_fallback, sparse_enabled

    if subspace is not None or sparse_enabled(space):
        from repro.semantics.sparse.checkers import check_leadsto_strong_sparse

        try:
            return check_leadsto_strong_sparse(
                program, p, q, budget=budget, subspace=subspace,
                checkpoint=checkpoint,
            )
        except ExplorationError as exc:
            dense_fallback(space, "check_leadsto_strong", exc)
    subject = f"{p.describe()} ~>[strong] {q.describe()}"
    analysis = strong_fair_scc_analysis(program, q)
    bad = p.mask(space) & analysis.avoid_mask
    idx = np.flatnonzero(bad)
    if idx.size == 0:
        return CheckResult(
            True, "leadsto-strong", subject,
            message=(
                f"{int(analysis.safe_mask.sum())} ¬q-states safe under "
                f"strong fairness, {int(analysis.avoid_mask.sum())} avoidable"
            ),
        )
    state = space.state_at(int(idx[0]))
    return CheckResult(
        False, "leadsto-strong", subject,
        message=f"avoidable even under strong fairness, from {state!r}",
        witness={"state": state, "violations": int(idx.size)},
    )


def fairness_gap(program: Program, p: Predicate, q: Predicate) -> dict[str, bool]:
    """Verdicts of both fairness notions side by side.

    Soundness invariant (tested): weak ⇒ strong — anything guaranteed under
    the weaker scheduler constraint is guaranteed under the stronger one.
    The interesting instances are ``{'weak': False, 'strong': True}``.
    """
    from repro.semantics.leadsto import check_leadsto

    weak = check_leadsto(program, p, q).holds
    strong = check_leadsto_strong(program, p, q).holds
    return {"weak": weak, "strong": strong, "gap": strong and not weak}
