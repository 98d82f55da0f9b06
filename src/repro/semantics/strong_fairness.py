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
from repro.semantics.domain import domain_for
from repro.semantics.leadsto import _fair_flags, leadsto_judgment

__all__ = [
    "check_leadsto_strong",
    "check_transient_strong",
    "fairness_gap",
]


def check_transient_strong(program: Program, p: Predicate) -> CheckResult:
    """``p`` is transient under **strong** fairness of ``D``.

    Finite-state criterion, dual to the per-SCC avoidance test of the
    module docstring: no SCC of the ``p``-subgraph passes the
    strong-fairness test — every component has a helpful ``d ∈ D`` that
    some member enables and that exits the component from *every* member
    enabling it, so a strongly-fair execution must keep descending the
    condensation DAG until it leaves ``p``.  This is the semantic leaf behind
    :class:`repro.core.rules.StrongTransientBasis`, the rule the proof
    synthesizer uses to certify strong-fairness leads-to verdicts (e.g.
    the pipeline∘allocator delivery property, which *fails* under weak
    fairness).

    Decided over the domain :func:`~repro.semantics.domain.domain_for`
    resolves (reachable-restricted above the sparse threshold).
    """
    return transient_strong_on(domain_for(program, "check_transient_strong"), p)


def transient_strong_on(d, p: Predicate) -> CheckResult:
    """:func:`check_transient_strong` over the domain ``d``."""
    subject = f"transient[strong] {p.describe()}"
    pm = d.pred_mask(p)
    if not pm.any():
        return CheckResult(
            True,
            "transient-strong",
            subject,
            message=(
                f"p is unsatisfiable on every {d.where}state "
                f"(vacuously transient, {d.label})"
            ),
            witness=d.annotate({}),
        )
    fair_cmds = d.program.fair_commands
    cond = d.graph().condensation(pm)
    # Enabledness rows stream lazily, as in the leads-to analysis.
    flags = _fair_flags(
        cond,
        [d.succ_local(cmd) for cmd in fair_cmds],
        enabled=[(lambda ids, c=cmd: d.enabled_at(c, ids)) for cmd in fair_cmds],
    )
    hit = np.flatnonzero(flags)
    if hit.size == 0:
        return CheckResult(
            True,
            "transient-strong",
            subject,
            message=(
                f"every SCC of the {d.where}p-subgraph ({cond.count} "
                f"component(s)) has an enabled exiting fair command ({d.label})"
            ),
            witness=d.annotate({"components": cond.count}),
        )
    state = d.state_at_local(int(cond.members_of(hit[0])[0]))
    return CheckResult(
        False,
        "transient-strong",
        subject,
        message=(
            "a strongly-fair execution can stay inside p forever "
            f"(e.g. in the component of {state!r})"
        ),
        witness=d.annotate({"state": state, "fair_components": int(hit.size)}),
    )


def check_leadsto_strong(
    program: Program,
    p: Predicate,
    q: Predicate,
    *,
    budget=None,
    subspace=None,
) -> CheckResult:
    """Check ``p ↝ q`` assuming **strong** fairness of ``D``.

    ``budget`` / ``subspace`` form the normalized keyword set shared by
    every public checker (see ``docs/composition.md``); a checkpoint
    policy is :func:`repro.api.verify`'s.
    The same judgment as :func:`repro.semantics.leadsto.check_leadsto`
    (domain routing, exhaustion, witnesses), with the strong-fairness
    SCC criterion of :func:`repro.semantics.leadsto.fair_analysis`.
    """
    return leadsto_judgment(
        program,
        p,
        q,
        strong=True,
        budget=budget,
        subspace=subspace,
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
