"""Pipeline × allocator product: composition coupling two case studies.

The paper's program model composes by **union**, so two systems that name
the same shared variable genuinely interact when composed.  This module
exercises that at a scale only the capacity-tiered engine can hold: the
counter pipeline of :mod:`repro.systems.pipeline` and the client side of
the resource allocator (:mod:`repro.systems.allocator`) share the token
pool ``avail`` — clients compete with the pipeline's source for the very
tokens the pipeline is supposed to deliver.

The encoded space is the full product
``(total+1)^2 · (cap+1)^stages · (total+1)^clients`` — the default
``stages=16, clients=3, total=3`` build is ``4^21 ≈ 4.4 · 10^12``, five
orders of magnitude beyond the dense capacity — while conservation
(``avail + Σ c_i + done + Σ hold_j = total``) confines the reachable set
to the weak compositions of ``total`` tokens into ``stages + clients + 2``
bins: **1771** states, which the sparse tier interns in milliseconds.

The composition changes the *verdicts*, not just the size — that is the
point of the exhibit:

- ``invariant conservation`` still holds (reachable-invariant at scale);
- **delivery under weak fairness is now false**: the scheduler can
  ping-pong one token between a client's fair ``take``/``give`` pair and
  fire ``feed`` only while the pool is empty — a fair execution in which
  the pipeline starves forever.  The standalone pipeline's delivery proof
  does **not** survive composition with a competing environment.
- **delivery under strong fairness holds**: whenever the pool cycle makes
  ``avail > 0`` recur, strong fairness forces an *enabled* ``feed``
  eventually, and every enabled fair move strictly advances tokens toward
  ``done``.

Both verdicts are decided **and certified** by the sparse tier end to
end: ``check_leadsto`` refuses delivery under weak fairness with a
confining-path witness into the starving clients' fair SCC, and
``synthesize_leadsto_proof(..., fairness="strong")`` produces a
kernel-checked induction certificate (~1 100 variant levels over the
1 771 reachable states) without ever allocating a full-space array —
``python -m repro scenario product --prove`` prints both artifacts.
The differential suite pins the same verdicts densely on a small
instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.expressions import esum
from repro.core.predicates import ExprPredicate, Predicate
from repro.core.program import Program
from repro.core.properties import Invariant, LeadsTo
from repro.core.variables import Var
from repro.systems.pipeline import _check_sizes, _compose_stack

__all__ = ["PipelineAllocatorSystem", "build_pipeline_allocator"]


@dataclass
class PipelineAllocatorSystem:
    """The coupled pipeline ∘ clients composition plus its properties."""

    stages: int
    clients: int
    cap: int
    total: int
    components: list[Program]
    system: Program

    @property
    def avail(self) -> Var:
        return self.system.var_named("avail")

    @property
    def done(self) -> Var:
        return self.system.var_named("done")

    def c(self, i: int) -> Var:
        """Buffer counter of pipeline stage ``i``."""
        return self.system.var_named(f"c[{i}]")

    def hold(self, j: int) -> Var:
        """Held-token count of client ``j``."""
        return self.system.var_named(f"hold[{j}]")

    # -- properties -----------------------------------------------------------

    def conservation_predicate(self) -> Predicate:
        """``avail + Σ c_i + done + Σ hold_j = total``."""
        tokens = (
            self.avail.ref()
            + esum([self.c(i).ref() for i in range(self.stages)])
            + self.done.ref()
            + esum([self.hold(j).ref() for j in range(self.clients)])
        )
        return ExprPredicate(tokens == self.total)

    def conservation(self) -> Invariant:
        """``invariant conservation`` — composition preserves the token
        count even though two subsystems now move tokens."""
        return Invariant(self.conservation_predicate())

    def delivery(self) -> LeadsTo:
        """``conservation ↝ done = total``.

        **False under weak fairness** (the starvation exhibit: clients can
        soak up every token whenever the scheduler lets them), **true
        under strong fairness** — check it with both
        :func:`~repro.semantics.leadsto.check_leadsto` and
        :func:`~repro.semantics.strong_fairness.check_leadsto_strong` to
        see the composition-induced fairness gap, and certify the strong
        verdict with :func:`~repro.semantics.synthesis.
        synthesize_leadsto_proof` (``fairness="strong"``), which builds
        the induction certificate on the reachable subspace.
        """
        return LeadsTo(
            self.conservation_predicate(),
            ExprPredicate(self.done.ref() == self.total),
        )


def build_pipeline_allocator(
    stages: int,
    *,
    clients: int = 3,
    total: int = 3,
    cap: int | None = None,
) -> PipelineAllocatorSystem:
    """Compose a ``stages``-deep pipeline with ``clients`` allocator
    clients competing for the same ``total``-token pool.

    ``cap`` (default ``total``) bounds each stage buffer, as in
    :func:`repro.systems.pipeline.build_pipeline_system`.  The initial
    state is unique (full pool, empty pipeline, empty hands), so the
    sparse tier's conjunct join enumerates it directly; the semantic
    initial-state probe is skipped for the same reason it is in the
    pipeline builder — it would materialize a full-space mask.
    """
    cap = _check_sizes(stages, total, clients=clients, cap=cap)
    components, system = _compose_stack(
        f"PipelineAllocator[{stages}x{clients}]", [cap] * stages, total, clients
    )
    return PipelineAllocatorSystem(
        stages=stages, clients=clients, cap=cap, total=total,
        components=components, system=system,
    )
