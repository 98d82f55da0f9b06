"""Evaluation domains: the state sets the engine's judgments quantify over.

Every judgment of the engine — validity, ``init``, ``next``, ``stable``,
weak and strong ``transient``, the reachable invariant, leads-to under
weak and strong fairness, proof synthesis and the batched certificate
check — is written once, against a *domain*: a set of states addressed
by compact **local** ids ``0 .. size - 1``, together with everything a
judgment reads from it.  Two *mask* domains realize the protocol:

- :class:`FullSpace` — the whole encoded space of a program (local id ==
  global index).  Judgments over it decide the paper's **inductive**
  semantics (§2): properties quantify over all states, reachable or not.
- :class:`~repro.semantics.sparse.explorer.ReachableSubspace` — the
  reachable slice of the space (local id == rank among the sorted
  reachable global indices).  Judgments over it decide the
  **reachable-restricted** semantics, and never allocate an array of
  length ``space.size``.

The protocol both classes provide:

- ``program``, ``space``, ``size``;
- ``pred_mask(p)`` — satisfaction mask of a predicate over the local ids;
- ``succ_local(cmd)`` — successor column of one command;
  ``enabled_local(cmd)`` — its enabledness column, and
  ``enabled_at(cmd, ids)`` — its enabledness at some local ids only;
- ``init_local`` — local ids of the initial states, and
  ``reachable_mask()`` — local mask of the reachable states;
- ``state_at_local(k)`` — the decoded state of local id ``k``;
- ``graph()`` — the graph backend (table walks, condensations) over the
  local ids;
- ``restrict(global_ids)`` — ``(local ids, kept)`` of the members among
  some global indices, and ``to_global(local_ids)`` — the way back;
- ``witness_path(k)`` — a shortest command path from the initial set to
  ``k`` as ``(states, commands)``, or ``None`` when the domain keeps no
  BFS parents;
- ``label`` (``"dense tier"`` / ``"sparse tier"``) and ``where``
  (``""`` / ``"reachable "``) — the wording of verdict messages;
- ``annotate(witness, *, reachable=False, metrics=False)`` — the
  domain's witness extras (``tier``, ``reachable``, ``metrics``).

Properties and proof rules see a narrower protocol, the **rule
judgments** ``valid(p, q)``, ``init(p)``, ``equivalent(a, b)``,
``next(p, q)``, ``transient(p)``, ``transient_strong(p)``,
``valid_wp(pre, cmd, post)`` and ``ensures(node, result, path)``, each
returning a verdict with ``holds``, ``obligations`` and
``message``/``explain()`` (:func:`repro.core.proofs.discharge`).  The
two mask domains share one implementation of them,
:class:`~repro.semantics.judgments.MaskJudgments`.  A third domain
provides only these:
:class:`~repro.semantics.compositional.FootprintSpace`, a composed
system's states, never enumerated — each judgment is decided on the
variable footprint of its obligation.  So one proof walk
(:meth:`~repro.core.proofs.ProofNode.check_on`) checks every
certificate, on whichever of the three domains its question names.

:func:`domain_for` is the engine's single routing rule, tier included.
Each question — :func:`repro.api.verify` (under its budget and
checkpoint policy), a public checker, a proof check, synthesis, the
batched certificate check — resolves its domain through it once and
decides every judgment it needs on that one domain.
"""

from __future__ import annotations

import numpy as np

from repro.core.commands import Command
from repro.core.predicates import Predicate
from repro.core.program import Program
from repro.errors import CapacityError, ExplorationError, PropertyError
from repro.semantics.explorer import reachable_mask
from repro.semantics.judgments import MaskJudgments
from repro.semantics.sparse import dense_fallback, sparse_enabled
from repro.semantics.sparse.explorer import reachable_subspace
from repro.semantics.transition import TransitionSystem

__all__ = ["FullSpace", "domain_for"]


class FullSpace(MaskJudgments):
    """The whole encoded state space of ``program`` as a domain.

    Successor tables and the graph backend are read lazily through
    :meth:`TransitionSystem.for_program
    <repro.semantics.transition.TransitionSystem.for_program>` on every
    access: its weak cache stays the only dense cache, and judgments that
    read only predicate masks (validity, ``init``, proof side conditions)
    build no tables at all.
    """

    __slots__ = ("program", "space")

    label = "dense tier"
    where = ""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.space = program.space

    @property
    def size(self) -> int:
        return self.space.size

    def _command(self, command: Command | str) -> Command:
        if isinstance(command, str):
            return self.program.command_named(command)
        return command

    def pred_mask(self, pred: Predicate) -> np.ndarray:
        return pred.mask(self.space)

    def succ_local(self, command: Command | str) -> np.ndarray:
        return TransitionSystem.for_program(self.program).table_of(command)

    def enabled_local(self, command: Command | str) -> np.ndarray:
        return self._command(command).enabled_mask(self.space)

    def enabled_at(self, command: Command | str, ids: np.ndarray) -> np.ndarray:
        return self._command(command).enabled_at(self.space, ids)

    @property
    def init_local(self) -> np.ndarray:
        return np.flatnonzero(self.program.initial_mask())

    def reachable_mask(self) -> np.ndarray:
        return reachable_mask(self.program)

    def state_at_local(self, k: int):
        return self.space.state_at(int(k))

    def graph(self):
        return TransitionSystem.for_program(self.program).graph()

    def restrict(self, global_ids: np.ndarray):
        return global_ids, slice(None)

    def to_global(self, local_ids: np.ndarray) -> np.ndarray:
        return local_ids

    def witness_path(self, k: int) -> None:
        return None

    def annotate(self, witness: dict, *, reachable=False, metrics=False) -> dict:
        return witness

    def __repr__(self) -> str:
        return f"<FullSpace {self.program.name}: {self.space.size} states>"


def domain_for(
    program: Program,
    op: str,
    *,
    tier: str = "auto",
    budget=None,
    subspace=None,
    checkpoint=None,
):
    """The domain the judgment ``op`` runs on for ``program`` under ``tier``.

    An explicit ``subspace`` wins.  Otherwise ``tier="auto"`` gives
    spaces above :data:`~repro.semantics.sparse.SPARSE_THRESHOLD` the
    cached reachable subspace and every other space the
    :class:`FullSpace`; ``tier="sparse"`` always explores, and
    ``tier="dense"`` refuses with a :class:`~repro.errors.CapacityError`
    when the space routes sparse.  ``budget`` / ``checkpoint`` bound the
    exploration.

    When the exploration fails with an
    :class:`~repro.errors.ExplorationError` (non-expression
    ``initially``, reachable set above its ``node_limit``), ``"auto"``
    falls back to the full space through
    :func:`~repro.semantics.sparse.dense_fallback`, which refuses with a
    :class:`~repro.errors.CapacityError` chaining the failure beyond
    ``DENSE_MAX``; ``"sparse"`` re-raises it.
    :class:`~repro.errors.BudgetExhausted` propagates: running out of
    budget is resumable, never grounds for a dense restart, and
    :func:`repro.api.verify`, the only caller holding a budget, turns it
    into a :class:`~repro.semantics.budget.PartialResult`.
    """
    if subspace is not None:
        if tier == "dense":
            raise PropertyError("tier='dense' contradicts subspace=")
        return subspace
    space = program.space
    if tier != "sparse" and not sparse_enabled(space):
        return FullSpace(program)
    if tier == "dense":
        raise CapacityError(
            f"tier='dense' refused: {space.size} encoded "
            "states routes sparse; use tier='auto' or tier='sparse'"
        )
    try:
        return reachable_subspace(program, budget=budget, checkpoint=checkpoint)
    except ExplorationError as exc:
        if tier == "sparse":
            raise
        dense_fallback(space, op, exc)
        return FullSpace(program)
