"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing genuine bugs (``TypeError`` etc. still propagate).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DomainError",
    "ExpressionError",
    "EvaluationError",
    "StateError",
    "CapacityError",
    "CommandError",
    "ProgramError",
    "CompositionError",
    "PropertyError",
    "ExplorationError",
    "BudgetExhausted",
    "CheckpointError",
    "ProofError",
    "GraphError",
    "DslError",
    "DslSyntaxError",
    "ElaborationError",
]


class ReproError(Exception):
    """Base class of all library-specific errors."""


class DomainError(ReproError):
    """A value is outside its declared finite domain, or a domain is invalid."""


class ExpressionError(ReproError):
    """An expression tree is malformed (arity, typing, unknown variable)."""


class EvaluationError(ReproError):
    """Evaluation of an expression or predicate failed at runtime."""


class StateError(ReproError):
    """A state or state space is inconsistent with its variable declarations."""


class CapacityError(StateError):
    """A dense-tier operation was asked to materialize full-space arrays over
    a state space beyond its capacity (``StateSpace.DENSE_MAX``).

    Capacity is a **per-tier policy**, not a property of the space: building
    a :class:`~repro.core.state.StateSpace` of any size is legal, and the
    sparse tier (:mod:`repro.semantics.sparse`) explores it up to its
    ``node_limit`` without full-space arrays.  Subclasses
    :class:`StateError` so pre-existing ``except StateError`` sites keep
    catching the old constructor-time size failures.
    """


class CommandError(ReproError):
    """A command is malformed (duplicate targets, type mismatch, bad guard)."""


class ProgramError(ReproError):
    """A program violates the model of §2 (e.g. writes an undeclared variable)."""


class CompositionError(ReproError):
    """Two programs cannot be composed (locality or initial-condition clash)."""


class PropertyError(ReproError):
    """A property is malformed or applied to an incompatible program."""


class ExplorationError(ReproError, ValueError):
    """State-space exploration exceeded a limit or cannot enumerate a set.

    Also a :class:`ValueError` for backward compatibility with callers that
    caught the old bare ``ValueError`` from ``reachable_states``.
    """


class BudgetExhausted(ReproError):
    """A run budget (deadline, soft node limit, level cap) ran out.

    Deliberately **not** an :class:`ExplorationError`: the sparse→dense
    fallback sites catch ``ExplorationError`` to mean "the sparse tier
    cannot decide this instance", and a budget running out is neither a
    tier failure nor grounds for silently restarting the same work on the
    dense tier.  :func:`repro.api.verify`, the one entry point that takes
    a budget, catches this class and degrades to a structured
    ``status="unknown"`` :class:`~repro.semantics.budget.PartialResult`;
    everyone else fails loudly.

    Attributes
    ----------
    reason:
        Which budget ran out: ``"deadline"``, ``"node-budget"`` or
        ``"level-budget"``.
    explored:
        Number of states interned when the budget ran out.
    levels:
        Number of **completed** BFS levels (the checkpoint, if any,
        reflects exactly these).
    elapsed:
        Wall-clock seconds spent exploring.
    checkpoint_path:
        Path of the checkpoint emitted on exhaustion, or ``None`` when no
        checkpoint policy was active.
    rate:
        Cumulative discovery rate in states per second (``explored``
        over the total exploration wall time, including any resumed
        prefix's recorded elapsed time); ``0.0`` when unknown.
    frontier:
        Size of the last completed BFS level — how wide the exploration
        front was when the budget ran out; ``0`` when unknown.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str,
        explored: int,
        levels: int,
        elapsed: float,
        checkpoint_path: "str | None" = None,
        rate: float = 0.0,
        frontier: int = 0,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.explored = explored
        self.levels = levels
        self.elapsed = elapsed
        self.checkpoint_path = checkpoint_path
        self.rate = rate
        self.frontier = frontier


class CheckpointError(ReproError):
    """A checkpoint file was refused (corrupt, truncated, wrong program).

    Fail-closed by design: a checkpoint that does not validate end to end
    — magic, header, payload digest, program digest — is never partially
    loaded, and exploration never resumes from it.

    Attributes
    ----------
    reason:
        Structured refusal code, for callers (the certification service's
        cache, CLI diagnostics) that dispatch on *why* the file was
        refused rather than re-parsing the message: ``"bad-magic"``,
        ``"truncated"``, ``"corrupt-header"``, ``"payload-digest"``,
        ``"inconsistent"``, ``"trailing-bytes"``, ``"program-digest"``,
        ``"command-set"``, ``"io"``; ``None`` for legacy raise sites.
    """

    def __init__(self, message: str, *, reason: "str | None" = None) -> None:
        super().__init__(message)
        self.reason = reason


class ProofError(ReproError):
    """A proof object failed to check (invalid rule application or leaf)."""


class GraphError(ReproError):
    """A neighbourhood graph or orientation is malformed."""


class DslError(ReproError):
    """Base class for surface-language errors."""


class DslSyntaxError(DslError):
    """The DSL source text could not be tokenized or parsed."""

    def __init__(self, message: str, line: int = -1, column: int = -1) -> None:
        self.line = line
        self.column = column
        if line >= 0:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ElaborationError(DslError):
    """A parsed DSL tree could not be elaborated into core objects."""
