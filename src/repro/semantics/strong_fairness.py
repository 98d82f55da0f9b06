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

from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.semantics.checker import CheckResult
from repro.semantics.domain import domain_for
from repro.semantics.leadsto import leadsto_judgment

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
    return domain_for(program, "check_transient_strong").transient_strong(p)


def check_leadsto_strong(
    program: Program,
    p: Predicate,
    q: Predicate,
    *,
    subspace=None,
) -> CheckResult:
    """Check ``p ↝ q`` assuming **strong** fairness of ``D``.

    ``subspace`` is the keyword every public checker shares (see
    ``docs/composition.md``); a budget and a checkpoint policy are
    :func:`repro.api.verify`'s.
    The same judgment as :func:`repro.semantics.leadsto.check_leadsto`
    (domain routing, witnesses), with the strong-fairness SCC criterion
    of :func:`repro.semantics.leadsto.fair_analysis`.
    """
    return leadsto_judgment(program, p, q, strong=True, subspace=subspace)


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
