"""Semantic engine: finite-state discharge of the paper's property language.

The engine turns a :class:`~repro.core.program.Program` into NumPy successor
tables (:mod:`repro.semantics.transition`) and checks properties over the
**whole encoded state space** (the paper's inductive semantics — no
substitution axiom, no implicit restriction to reachable states).  Each
judgment is written once as a function of an evaluation domain — the
full space or a reachable subspace (:mod:`repro.semantics.domain`) — and
each question (a public checker, a proof check, a batched certificate
check) resolves its domain once, through ``domain_for``, the single
routing rule:

- ``init / next / stable / transient / invariant`` —
  :mod:`repro.semantics.checker`;
- ``leads-to`` under weak fairness — :mod:`repro.semantics.leadsto`
  (fair-SCC analysis on the cone of ``p ∧ ¬q``: a vectorized trim +
  forward-backward SCC decomposition, :mod:`repro.semantics.scc`, of
  the cone's sub-CSR, which the domain's graph backend,
  :mod:`repro.semantics.graph_backend`, builds from its successor
  columns);
- reachability-based (non-inductive) invariants —
  :mod:`repro.semantics.explorer`;
- **sparse tier** — :mod:`repro.semantics.sparse`: frontier exploration,
  reachable subspaces, and sub-CSR checking for composition stacks whose
  encoded space exceeds :data:`repro.semantics.sparse.SPARSE_THRESHOLD`
  (the checkers route there automatically);
- **proof synthesis** — :mod:`repro.semantics.synthesis` reconstructs a
  kernel-checkable certificate (using only the paper's proof rules) for any
  finite-state leads-to validated by the model checker;
- execution — fair schedulers and trace simulation
  (:mod:`repro.semantics.scheduler`, :mod:`repro.semantics.simulate`);
- ``wp`` cross-validation — :mod:`repro.semantics.wp`;
- **fault tolerance** — :mod:`repro.semantics.budget` (run budgets and
  the resumable ``status="unknown"`` :class:`PartialResult`) and
  :mod:`repro.semantics.sparse.checkpoint` (atomic, digest-keyed BFS
  checkpoints); see ``docs/robustness.md``.
"""

from repro.semantics.budget import Budget, PartialResult
from repro.semantics.checker import (
    CheckResult,
    check_init,
    check_invariant,
    check_next,
    check_reachable_invariant,
    check_stable,
    check_transient,
    check_validity,
)
from repro.semantics.domain import FullSpace, domain_for
from repro.semantics.explorer import reachable_mask, reachable_states
from repro.semantics.graph_backend import GraphBackend
from repro.semantics.invariants import (
    auto_invariant,
    inductive_strengthening,
    strongest_invariant,
)
from repro.semantics.leadsto import FairAnalysis, check_leadsto, fair_analysis
from repro.semantics.scc import condensation, tarjan_condensation
from repro.semantics.scheduler import (
    RandomFairScheduler,
    RoundRobinScheduler,
    Scheduler,
    SequenceScheduler,
)
from repro.semantics.simulate import Trace, simulate
from repro.semantics.strong_fairness import (
    check_leadsto_strong,
    check_transient_strong,
    fairness_gap,
)
from repro.semantics.sparse import (
    CheckpointPolicy,
    ReachableSubspace,
    explore,
    reachable_subspace,
    resume_exploration,
    sparse_enabled,
)
from repro.semantics.synthesis import (
    check_certificate_batched,
    synthesize_leadsto_proof,
)
from repro.semantics.transition import TransitionSystem
from repro.semantics.wp import semantic_wp, wp_agreement

__all__ = [
    "CheckResult",
    "check_init",
    "check_invariant",
    "check_next",
    "check_reachable_invariant",
    "check_stable",
    "check_transient",
    "check_validity",
    "check_leadsto",
    "FairAnalysis",
    "fair_analysis",
    "FullSpace",
    "domain_for",
    "condensation",
    "tarjan_condensation",
    "GraphBackend",
    "reachable_mask",
    "reachable_states",
    "ReachableSubspace",
    "explore",
    "reachable_subspace",
    "sparse_enabled",
    "Budget",
    "PartialResult",
    "CheckpointPolicy",
    "resume_exploration",
    "auto_invariant",
    "inductive_strengthening",
    "strongest_invariant",
    "TransitionSystem",
    "Scheduler",
    "RoundRobinScheduler",
    "RandomFairScheduler",
    "SequenceScheduler",
    "Trace",
    "simulate",
    "synthesize_leadsto_proof",
    "check_certificate_batched",
    "check_leadsto_strong",
    "check_transient_strong",
    "fairness_gap",
    "semantic_wp",
    "wp_agreement",
]
