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

from repro._lazy import lazy_surface

__all__, __getattr__, __dir__ = lazy_surface(
    __name__,
    {
        "checker": (
            "CheckResult", "check_init", "check_invariant", "check_next",
            "check_reachable_invariant", "check_stable", "check_transient",
            "check_validity",
        ),
        "leadsto": ("check_leadsto", "FairAnalysis", "fair_analysis"),
        "domain": ("FullSpace", "domain_for"),
        "scc": ("condensation", "tarjan_condensation"),
        "graph_backend": ("GraphBackend",),
        "explorer": ("reachable_mask", "reachable_states"),
        "sparse": (
            "ReachableSubspace", "explore", "reachable_subspace", "sparse_enabled",
            "CheckpointPolicy", "resume_exploration",
        ),
        "budget": ("Budget", "PartialResult"),
        "invariants": (
            "auto_invariant", "inductive_strengthening", "strongest_invariant",
        ),
        "transition": ("TransitionSystem",),
        "scheduler": (
            "Scheduler", "RoundRobinScheduler", "RandomFairScheduler",
            "SequenceScheduler",
        ),
        "simulate": ("Trace", "simulate"),
        "synthesis": ("synthesize_leadsto_proof", "check_certificate_batched"),
        "strong_fairness": (
            "check_leadsto_strong", "check_transient_strong", "fairness_gap",
        ),
        "wp": ("semantic_wp", "wp_agreement"),
    },
)
