"""A counter/allocator pipeline: the sparse tier's showcase composition.

The paper's thesis is that systems are built by composing components whose
specifications are stated in the property language.  This module pushes
the thesis to the scale where composition *hurts* the dense engine: a
source (allocator pool), ``K`` forwarding stages, and a sink, composed
with :func:`repro.core.composition.compose_all`:

- **Source** — owns the pool ``avail`` (initially ``total`` tokens) and
  feeds stage 0: ``avail > 0 ∧ c_0 < cap  →  c_0, avail := c_0+1, avail-1``;
- **Stage i** — forwards: ``c_{i-1} > 0 ∧ c_i < cap  →  transfer one``;
- **Sink** — retires: ``c_{K-1} > 0 ∧ done < total  →  done := done+1``.

All commands are weakly fair, so every token is eventually pushed through
the whole pipeline.  The composed ``initially`` (conjunction of the
component predicates) pins the unique start state ``avail = total ∧
⟨∀i : c_i = 0⟩ ∧ done = 0``.

Why this is the sparse showcase: the **encoded** space is the product
``(total+1) · (cap+1)^K · (total+1)`` — exponential in the stage count —
while **conservation** (``avail + Σ c_i + done = total``) confines the
reachable set to the compositions of ``total`` tokens into ``K + 2``
bins: polynomial.  With the default ``stages=10, total=3, cap=3`` the
encoded space is ≈ 1.7 · 10⁷ states and the reachable set is **364**
(``C(14, 11)`` weak compositions of 3 tokens into 12 bins) — five orders
of magnitude of slack that only the sparse tier
(:mod:`repro.semantics.sparse`) can exploit; the dense tiers would
allocate 130 MB *per successor table*.

Verified properties (tests, example, CLI scenario):

- ``invariant conservation`` (inductive; checked densely on small
  instances, as a reachable-invariant through the sparse tier at scale);
- **delivery** — ``conservation ↝ done = total``: every fair execution
  drains the pipeline (tokens only move forward, and in every conserving
  non-final state some fair command is enabled and strictly advances the
  progress measure);
- **no recycling** (negative exhibit) — ``done = total ↝ avail > 0`` is
  *false*: the final state is absorbing, and its singleton SCC (all fair
  commands disabled) is exactly a fair SCC of the ``¬q`` graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.commands import GuardedCommand
from repro.core.composition import compose_all
from repro.core.domains import IntRange
from repro.core.expressions import Expr, esum, land
from repro.core.predicates import ExprPredicate, Predicate
from repro.core.program import Program
from repro.core.properties import Invariant, LeadsTo
from repro.core.variables import Var
from repro.systems.allocator import build_client

__all__ = ["PipelineSystem", "build_pipeline_system"]


def pool_var(total: int) -> Var:
    """The source's token pool ``avail``."""
    return Var.shared("avail", IntRange(0, total))


def stage_var(i: int, cap: int) -> Var:
    """Stage ``i``'s buffer counter ``c[i]`` (shared with its neighbours)."""
    return Var.indexed("c", i, IntRange(0, cap))


def done_var(total: int) -> Var:
    """The sink's retirement counter ``done``."""
    return Var.shared("done", IntRange(0, total))


@dataclass
class PipelineSystem:
    """The composed pipeline plus its verification interface."""

    stages: int
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
        """Buffer counter of stage ``i``."""
        return self.system.var_named(f"c[{i}]")

    def in_flight(self) -> Expr:
        """``Σ_i c_i`` — tokens currently inside the pipeline."""
        return esum([self.c(i).ref() for i in range(self.stages)])

    # -- properties -----------------------------------------------------------

    def conservation_predicate(self) -> Predicate:
        """``avail + Σ c_i + done = total``."""
        return ExprPredicate(
            self.avail.ref() + self.in_flight() + self.done.ref() == self.total
        )

    def conservation(self) -> Invariant:
        """``invariant conservation`` — inductive over the whole space."""
        return Invariant(self.conservation_predicate())

    def delivery(self) -> LeadsTo:
        """``conservation ↝ done = total`` — the pipeline always drains."""
        return LeadsTo(
            self.conservation_predicate(),
            ExprPredicate(self.done.ref() == self.total),
        )

    def no_recycling(self) -> LeadsTo:
        """``done = total ↝ avail > 0`` — **false**: nothing refills the
        pool.  Kept as the negative exhibit (its fair SCC is the absorbing
        final state)."""
        return LeadsTo(
            ExprPredicate(self.done.ref() == self.total),
            ExprPredicate(self.avail.ref() > 0),
        )


def _build_source(total: int, cap: int) -> Program:
    avail = pool_var(total)
    c0 = stage_var(0, cap)
    feed = GuardedCommand(
        "feed",
        land(avail.ref() > 0, c0.ref() < cap),
        [(c0, c0.ref() + 1), (avail, avail.ref() - 1)],
    )
    return Program(
        "Source",
        [avail, c0],
        land(avail.ref() == total, c0.ref() == 0),
        [feed],
        fair=["feed"],
    )


def _build_stage(i: int, cap_src: int, cap_dst: int) -> Program:
    """Stage ``i``, declaring each neighbour buffer with its own capacity
    (shared variables must agree on their domain across components)."""
    src = stage_var(i - 1, cap_src)
    dst = stage_var(i, cap_dst)
    move = GuardedCommand(
        f"move[{i}]",
        land(src.ref() > 0, dst.ref() < cap_dst),
        [(src, src.ref() - 1), (dst, dst.ref() + 1)],
    )
    return Program(
        f"Stage[{i}]",
        [src, dst],
        ExprPredicate(dst.ref() == 0),
        [move],
        fair=[f"move[{i}]"],
    )


def _build_sink(stages: int, total: int, cap: int) -> Program:
    last = stage_var(stages - 1, cap)
    done = done_var(total)
    drain = GuardedCommand(
        "drain",
        land(last.ref() > 0, done.ref() < total),
        [(last, last.ref() - 1), (done, done.ref() + 1)],
    )
    return Program(
        "Sink",
        [last, done],
        ExprPredicate(done.ref() == 0),
        [drain],
        fair=["drain"],
    )


def _check_sizes(
    stages: int, total: int, *, clients: int | None = None, cap: int | None = None
) -> int:
    """Refuse impossible stack sizes (stages, then clients, tokens and
    buffer capacity); return the buffer capacity, ``total`` by default."""
    if stages < 1:
        raise ValueError(f"need at least one stage, got {stages}")
    if clients is not None and clients < 1:
        raise ValueError(f"need at least one client, got {clients}")
    if total < 1:
        raise ValueError(f"need at least one token, got {total}")
    if cap is None:
        return total
    if cap < total:
        raise ValueError(
            f"cap={cap} < total={total} can clog the pipeline; "
            "delivery needs cap >= total"
        )
    return cap


def _compose_stack(
    name: str, caps: list[int], total: int, clients: int = 0
) -> tuple[list[Program], Program]:
    """Source, one stage per buffer after the first, sink, and
    ``clients`` allocator clients sharing the pool — buffer ``i`` holds
    at most ``caps[i]`` tokens — and their composition ``name``.

    Composition skips the semantic initial-state probe
    (``check_init=False``): the probe would materialize a full-space mask,
    which is exactly what large stacks must avoid — the sparse explorer's
    initial enumeration (and a test) covers satisfiability.
    """
    stages = len(caps)
    components = [_build_source(total, caps[0])]
    components += [_build_stage(i, caps[i - 1], caps[i]) for i in range(1, stages)]
    components.append(_build_sink(stages, total, caps[-1]))
    components += [build_client(j, total) for j in range(clients)]
    return components, compose_all(components, name=name, check_init=False)


def build_pipeline_system(
    stages: int, *, total: int = 3, cap: int | None = None
) -> PipelineSystem:
    """Build a ``stages``-deep pipeline over ``total`` tokens.

    ``cap`` (default ``total``) bounds each stage buffer; ``cap ≥ total``
    guarantees the pipeline can never clog, which the delivery property
    relies on.
    """
    cap = _check_sizes(stages, total, cap=cap)
    components, system = _compose_stack(f"Pipeline[{stages}]", [cap] * stages, total)
    return PipelineSystem(
        stages=stages, cap=cap, total=total,
        components=components, system=system,
    )
