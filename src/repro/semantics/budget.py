"""Run budgets and graceful degradation for long explorations.

The sparse tier decides 10¹²-state composition stacks by exploring only
the reachable set — but "only the reachable set" can still be a week of
BFS.  A :class:`Budget` bounds one exploration run by wall-clock
deadline, a **soft** node budget, and/or a BFS-level cap; when a budget
runs out the explorer emits a checkpoint (see
:mod:`repro.semantics.sparse.checkpoint`) and raises
:class:`~repro.errors.BudgetExhausted`, which :func:`repro.api.verify` —
the one entry point that takes a budget, and through which the CLI and
the service ask — converts into a structured :class:`PartialResult`
with ``status="unknown"`` instead of letting an exception unwind
through the tier router.

Soft vs hard limits.  ``Budget.node_budget`` is a *policy*: hitting it is
a resumable UNKNOWN, not an error.  The explorer's ``node_limit``
argument keeps its **fail-closed** meaning — exceeding it raises
:class:`~repro.errors.ExplorationError` and (on routed checks) triggers
the dense fallback, exactly as before this module existed.

Soundness of UNKNOWN.  Universal properties stay meaningful on a
partially explored prefix: every state the prefix *does* contain really
is reachable, so a violation found early is a real violation — but the
absence of one proves nothing until the closure is complete.  The
explorer therefore never hands a partial subspace to a checker; budget
exhaustion surfaces *before* any verdict machinery runs, and the only
outputs are "resume from here" and the explored-so-far statistics.
``tests/test_faultinject.py`` pins that no partial subspace ever yields
a HOLDS/FAILS verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.errors import BudgetExhausted

__all__ = ["Budget", "PartialResult"]


@dataclass(frozen=True)
class Budget:
    """Resource bounds for one exploration run (all limits optional).

    Attributes
    ----------
    deadline:
        Wall-clock seconds from the start of the run.  Checked between
        per-command kernels inside a BFS level (so small deadlines bind
        even on instances with few, wide levels); the run never aborts
        mid-checkpoint-write.
    node_budget:
        Soft cap on interned states.  Unlike the explorer's hard
        ``node_limit`` (fail-closed :class:`~repro.errors.
        ExplorationError`), exceeding the soft budget is a resumable
        UNKNOWN.
    max_levels:
        Cap on completed BFS levels.
    """

    deadline: float | None = None
    node_budget: int | None = None
    max_levels: int | None = None

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {self.deadline}")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError(f"node_budget must be > 0, got {self.node_budget}")
        if self.max_levels is not None and self.max_levels <= 0:
            raise ValueError(f"max_levels must be > 0, got {self.max_levels}")

    def start(self) -> "BudgetClock":
        """A running clock over this budget (one per exploration run)."""
        return BudgetClock(self)


class BudgetClock:
    """One exploration run's view of a :class:`Budget`.

    Separating the immutable budget *spec* from the running *clock* keeps
    budgets reusable: a resumed exploration calls :meth:`Budget.start`
    again and gets a fresh deadline window.
    """

    __slots__ = ("budget", "t0")

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.t0 = time.monotonic()

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def exhausted(self, *, explored: int, levels: int) -> str | None:
        """The reason this run is out of budget, or ``None``.

        ``explored`` counts interned states, ``levels`` counts
        **completed** BFS levels.
        """
        b = self.budget
        if b.deadline is not None and self.elapsed > b.deadline:
            return "deadline"
        if b.node_budget is not None and explored > b.node_budget:
            return "node-budget"
        if b.max_levels is not None and levels >= b.max_levels:
            return "level-budget"
        return None


@dataclass
class PartialResult:
    """A sound, resumable non-verdict: the run budget ran out.

    Built only by :func:`repro.api.verify`, which returns it as the
    ``partial`` of an undecided :class:`~repro.api.Verdict` in place of
    a decided one.  Deliberately carries **no** ``holds``
    attribute: code that treats it as a boolean verdict fails loudly
    (``AttributeError`` on ``.holds``, ``TypeError`` on ``bool(...)``)
    instead of silently reading UNKNOWN as FAILS.

    Attributes
    ----------
    kind, subject:
        What was being decided, mirroring :class:`~repro.semantics.
        checker.CheckResult`.
    reason:
        Which budget ran out (``"deadline"`` / ``"node-budget"`` /
        ``"level-budget"``).
    explored, levels, elapsed:
        Explored-so-far statistics at exhaustion.
    checkpoint_path:
        Where to resume from (``None`` if no checkpoint policy was
        active).
    rate, frontier:
        Cumulative discovery rate (states/s, across any resumed prefix)
        and the size of the last completed BFS level — the two numbers
        that make an UNKNOWN actionable: together with ``explored`` they
        say how fast the exploration was moving and how wide the front
        still was when the budget ran out.
    """

    kind: str
    subject: str
    reason: str
    explored: int
    levels: int
    elapsed: float
    checkpoint_path: str | None = None
    witness: dict[str, Any] = field(default_factory=dict)
    status: str = "unknown"
    rate: float = 0.0
    frontier: int = 0

    @classmethod
    def from_exhaustion(
        cls, exc: BudgetExhausted, *, kind: str, subject: str
    ) -> "PartialResult":
        """Build the structured UNKNOWN from a caught exhaustion."""
        return cls(
            kind=kind,
            subject=subject,
            reason=exc.reason,
            explored=exc.explored,
            levels=exc.levels,
            elapsed=exc.elapsed,
            checkpoint_path=exc.checkpoint_path,
            witness={"tier": "sparse", "budget": exc.reason},
            rate=getattr(exc, "rate", 0.0),
            frontier=getattr(exc, "frontier", 0),
        )

    def __bool__(self) -> bool:
        raise TypeError(
            "PartialResult is not a verdict: the run budget ran out "
            f"({self.reason}) before {self.subject!r} was decided; check "
            ".status == 'unknown' and resume from .checkpoint_path"
        )

    def to_doc(self) -> dict[str, Any]:
        """JSON-safe rendering for wire protocols and manifests.

        The certification service ships UNKNOWNs to remote callers as
        structured documents; this is the one place the field set is
        spelled, so the service protocol and the run-manifest rows can
        never drift apart.  Deliberately mirrors the attribute names
        (``status`` first, so a reader skimming the document sees
        "unknown" before any statistics).
        """
        return {
            "status": self.status,
            "kind": self.kind,
            "subject": self.subject,
            "reason": self.reason,
            "explored": int(self.explored),
            "levels": int(self.levels),
            "elapsed_s": round(float(self.elapsed), 6),
            "rate": round(float(self.rate), 3),
            "frontier": int(self.frontier),
            "checkpoint_path": self.checkpoint_path,
        }

    def explain(self) -> str:
        """One-line summary, shaped like ``CheckResult.explain``."""
        pace = ""
        if self.rate > 0:
            pace = f" (≈{self.rate:,.0f} states/s"
            if self.frontier > 0:
                pace += f", last frontier {self.frontier} state(s)"
            pace += ")"
        elif self.frontier > 0:
            pace = f" (last frontier {self.frontier} state(s))"
        resume = (
            f"; resume from {self.checkpoint_path}"
            if self.checkpoint_path
            else ""
        )
        return (
            f"[UNKNOWN] {self.kind}: {self.subject} — {self.reason} "
            f"exhausted after {self.levels} BFS level(s), "
            f"{self.explored} state(s), {self.elapsed:.2f}s{pace}{resume}"
        )
