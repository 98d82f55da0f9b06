"""The 50-stage exhibit: a compositional delivery certificate at a scale
no explorer can touch.

:func:`build_hetero_stack` composes a *heterogeneous* pipeline (per-stage
buffer capacities cycling ``total``, ``total+1``, ``total+2``) with the
allocator clients of :mod:`repro.systems.allocator`.  At the flagship
size (``stages=50, clients=3, total=3``) the encoded product space is
``(total+1)² · Π(capᵢ+1) · (total+1)^clients ≈ 1.3 · 10³³`` states —
beyond not just the dense tier but the *sparse* tier too, whose int64
state indices overflow around ``9.2 · 10¹⁸``.  No tier can even index
this product, let alone explore it.

:func:`build_delivery_certificate` proves delivery anyway:

    ``conservation  ↝  done = total``   (strong fairness)

as a :class:`~repro.core.compositional.CompositionalCertificate` whose
every obligation is local — checkable by
:func:`repro.semantics.compositional.check_compositional` in time linear
in the stage count, with zero product-space exploration.

The rule tree, per retirement level ``d < total`` (writing ``Dd`` for
``done = d`` and ``D>`` for ``done ≥ d+1``):

- **stage chain** — ``Uᵢ : Dd ∧ cᵢ>0 ↝ D>`` by descending induction:
  ``U_{K-1}`` is an *ensures* via ``drain``; ``Uᵢ`` chains the ensures
  ``Tᵢ : Dd ∧ cᵢ>0 ↝ D> ∨ (Dd ∧ cᵢ₊₁>0)`` (via ``move[i+1]``) into
  ``Uᵢ₊₁`` through a disjunction;
- **pool-side progress** — ``P* : Dd ∧ avail+Σholdⱼ ≥ 1 ↝ D> ∨ (Dd ∧
  c₀>0)`` by :class:`~repro.core.compositional.StrongEnsures` around
  ``feed``: clients may soak up the pool under weak fairness (the
  starvation exhibit of :mod:`repro.systems.product`), but the fair
  ``give[j]`` commands make ``feed`` recurrently enabled and strong
  fairness forces it;
- **support split** — from ``conservation ∧ Dd``, *some* token variable
  is positive (:class:`~repro.core.compositional.SupportSplit`; the
  all-zero branch is unsatisfiable under conservation), and each branch
  routes into the stage chain or the pool-side tree;
- **conservation carry** — a PSP application with the stable
  conservation equality re-attaches ``conservation`` to the conclusion
  so the next retirement level can fire; its ``next`` obligation is
  discharged per command from weighted write deltas
  (:meth:`~repro.semantics.obligations.FootprintKernel.check_linear_stable`),
  never from a product mask.

Component lemmas (synthesized on each component's own ≤ tens-of-states
space by :func:`~repro.semantics.synthesis.synthesize_leadsto_proof`)
witness that every helpful command the tree leans on is genuinely
helpful in the component that contributes it, and a ``guarantees``
derivation (:mod:`repro.core.guarantees_calc`) assembles the per-
component universal properties into the delivery conclusion — the
paper's existential composition argument, recorded step by step in the
certificate's ``guarantee_trail``.
"""

from __future__ import annotations

from repro.core.compositional import (
    ComponentCertificate,
    CompositionalCertificate,
    StrongEnsures,
    SupportSplit,
)
from repro.core.expressions import esum, land
from repro.core.guarantees_calc import g_conjunction, g_transitivity
from repro.core.predicates import ExprPredicate, Predicate
from repro.core.properties import Guarantees, LeadsTo, Transient
from repro.core.rules import (
    Disjunction,
    Ensures,
    Implication,
    LeadsToProof,
    PSP,
    Transitivity,
)
from repro.systems.pipeline import _check_sizes, _compose_stack
from repro.systems.product import PipelineAllocatorSystem

__all__ = [
    "build_hetero_stack",
    "build_delivery_certificate",
    "encoded_size",
]


def build_hetero_stack(
    stages: int, *, clients: int = 3, total: int = 3
) -> PipelineAllocatorSystem:
    """A heterogeneous pipeline ∘ allocator stack.

    Per-stage capacities cycle ``total, total+1, total+2`` (all ≥
    ``total``, so the pipeline never clogs).  Composition skips the
    semantic initial-state probe — at the flagship size there is no
    array the probe could allocate; the compositional checker verifies
    initially-consistency symbolically instead.
    """
    _check_sizes(stages, total, clients=clients)
    caps = [total + (i % 3) for i in range(stages)]
    components, system = _compose_stack(
        f"HeteroStack[{stages}x{clients}]", caps, total, clients
    )
    return PipelineAllocatorSystem(
        stages=stages,
        clients=clients,
        cap=max(caps),
        total=total,
        components=components,
        system=system,
    )


def encoded_size(pa: PipelineAllocatorSystem) -> int:
    """Exact encoded product size (a plain Python int — it may exceed
    int64, which is the point of the exhibit)."""
    size = 1
    for v in pa.system.variables:
        size *= v.domain.size
    return size


# ---------------------------------------------------------------------------
# The delivery certificate
# ---------------------------------------------------------------------------


def _component_lemmas(
    pa: PipelineAllocatorSystem,
) -> tuple[ComponentCertificate, ...]:
    """Per-component helpfulness lemmas, each proved on its own space."""
    from repro.semantics.synthesis import synthesize_leadsto_proof

    certs: list[ComponentCertificate] = []
    total = pa.total
    for comp in pa.components:
        name = comp.name
        if name == "Source":
            avail = comp.var_named("avail")
            c0 = comp.var_named("c[0]")
            cap0 = c0.domain.hi
            p: Predicate = ExprPredicate(
                land(avail.ref() > 0, c0.ref() < cap0)
            )
            q: Predicate = ExprPredicate(c0.ref() > 0)
            role = "feed is helpful"
        elif name.startswith("Stage["):
            i = int(name[len("Stage[") : -1])
            src = comp.var_named(f"c[{i - 1}]")
            dst = comp.var_named(f"c[{i}]")
            cap = dst.domain.hi
            p = ExprPredicate(land(src.ref() > 0, dst.ref() < cap))
            q = ExprPredicate(dst.ref() > 0)
            role = f"move[{i}] is helpful"
        elif name == "Sink":
            last = next(v for v in comp.variables if v.name.startswith("c["))
            done = comp.var_named("done")
            p = ExprPredicate(land(last.ref() > 0, done.ref() < total))
            q = ExprPredicate(done.ref() > 0)
            role = "drain is helpful"
        elif name.startswith("Client["):
            hold = next(
                v for v in comp.variables if v.name.startswith("hold[")
            )
            avail = comp.var_named("avail")
            p = ExprPredicate(land(hold.ref() > 0, avail.ref() < total))
            q = ExprPredicate(avail.ref() > 0)
            role = f"{name}'s give returns tokens"
        else:  # pragma: no cover - unknown component shape
            continue
        proof = synthesize_leadsto_proof(comp, p, q, fairness="weak")
        certs.append(
            ComponentCertificate(
                component=comp,
                p=p,
                q=q,
                fairness="weak",
                proof=proof,
                role=role,
            )
        )
    return tuple(certs)


def _guarantee_derivation(
    pa: PipelineAllocatorSystem,
    lemmas: tuple[ComponentCertificate, ...],
    delivery: LeadsTo,
) -> tuple[Guarantees, tuple[str, ...]]:
    """Assemble per-component universal properties with the calculus.

    Each component contributes ``transient(pᵢ ∧ ¬qᵢ) guarantees
    (pᵢ ↝ qᵢ)`` — its helpful command survives any composition that
    keeps the exit transient.  ``g_conjunction`` folds the contributions
    into one guarantee; ``g_transitivity`` chains it into the delivery
    conclusion through the assembly guarantee whose evidence is the
    certificate's rule tree.
    """
    trail: list[str] = []
    parts: list[Guarantees] = []
    for cc in lemmas:
        g = Guarantees(Transient(cc.p & ~cc.q), LeadsTo(cc.p, cc.q))
        parts.append(g)
    folded = parts[0]
    for g in parts[1:]:
        folded = g_conjunction(folded, g)
    trail.append(
        f"g-conjunction over {len(parts)} component guarantees: "
        f"{folded.lhs.describe()[:60]}... g ..."
    )
    assembly = Guarantees(folded.rhs, delivery)
    trail.append(
        "assembly guarantee (evidence: the certificate rule tree): "
        f"(⋀ component lemmas) g ({delivery.describe()})"
    )
    final = g_transitivity(folded, assembly)
    trail.append(f"g-transitivity: {final.describe()}")
    return final, tuple(trail)


def build_delivery_certificate(pa: PipelineAllocatorSystem) -> CompositionalCertificate:
    """The compositional delivery certificate for a pipeline ∘ allocator
    stack (homogeneous or heterogeneous): ``conservation ↝ done = total``
    under strong fairness, with every obligation footprint-local."""
    sys = pa.system
    K, J, N = pa.stages, pa.clients, pa.total
    C = pa.conservation_predicate()
    done, avail = pa.done, pa.avail
    holds = [pa.hold(j) for j in range(J)]
    cs = [pa.c(i) for i in range(K)]
    goal = ExprPredicate(done.ref() == N)
    deq = [ExprPredicate(done.ref() == d) for d in range(N + 1)]
    dge = [ExprPredicate(done.ref() >= d) for d in range(N + 1)]
    ps_expr = avail.ref() + esum([h.ref() for h in holds])
    feed = sys.command_named("feed")

    def level(d: int, after: LeadsToProof) -> LeadsToProof:
        """``conservation ∧ done ≥ d ↝ done = total`` given the same for
        ``d+1`` (``after``)."""
        Dd, Dgt = deq[d], dge[d + 1]
        toks = [ExprPredicate(c.ref() > 0) for c in cs]
        base = C & Dd

        # Stage chain: U[i] : Dd ∧ cᵢ>0 ↝ D>
        U: list[LeadsToProof] = [None] * K  # type: ignore[list-item]
        U[K - 1] = Ensures(Dd & toks[K - 1], Dgt)
        for i in range(K - 2, -1, -1):
            T = Ensures(Dd & toks[i], Dgt | (Dd & toks[i + 1]))
            U[i] = Transitivity(
                T,
                Disjunction(
                    [Implication(Dgt, Dgt), U[i + 1]], conclude_lhs=T.q
                ),
            )

        # Pool side: P* : Dd ∧ PS ≥ 1 ↝ D> ∨ (Dd ∧ c₀>0), strong
        # fairness around feed; give[j] makes feed recurrently enabled.
        pstar_p = Dd & ExprPredicate(ps_expr >= 1)
        q0 = Dgt | (Dd & toks[0])
        rho = pstar_p & ~q0
        target = q0 | (rho & ExprPredicate(feed.guard))
        c1 = Implication(rho & ExprPredicate(avail.ref() >= 1), target)
        c2 = [
            Ensures(
                rho
                & ExprPredicate(
                    land(avail.ref() == 0, holds[j].ref() >= 1)
                ),
                target,
            )
            for j in range(J)
        ]
        recurrence = Disjunction([c1, *c2], conclude_lhs=rho)
        pstar = StrongEnsures(
            pstar_p, q0, helpful="feed", recurrence=recurrence
        )
        pstree = Transitivity(
            pstar,
            Disjunction(
                [Implication(Dgt, Dgt), U[0]], conclude_lhs=q0
            ),
        )

        # Support split: some token variable is positive under
        # conservation ∧ Dd (d < total); route each case.
        split_vars = (avail, *holds, *cs)
        pos_subs: list[LeadsToProof] = []
        for v in split_vars:
            blhs = base & ExprPredicate(v.ref() > 0)
            if v is avail or v in holds:
                pos_subs.append(
                    Transitivity(Implication(blhs, pstar_p), pstree)
                )
            else:
                i = cs.index(v)
                pos_subs.append(
                    Transitivity(Implication(blhs, U[i].lhs()), U[i])
                )
        zero_pred: Predicate = base
        for v in split_vars:
            zero_pred = zero_pred & ExprPredicate(v.ref() == 0)
        zero_sub = Implication(zero_pred, Dgt)
        core = SupportSplit(base, split_vars, tuple(pos_subs), zero_sub)

        # Conservation carry: PSP with the stable linear equality.
        psp = PSP(core, s=C, t=C)
        entry = Implication(base, psp.lhs())
        exit_ = Implication(psp.rhs(), after.lhs())
        step = Transitivity(entry, Transitivity(psp, exit_))
        return Disjunction(
            [Transitivity(step, after), after],
            conclude_lhs=C & dge[d],
        )

    H: LeadsToProof = Implication(C & dge[N], goal)
    for d in range(N - 1, -1, -1):
        H = level(d, H)
    root: LeadsToProof = Transitivity(Implication(C, H.lhs()), H)

    lemmas = _component_lemmas(pa)
    guarantee, trail = _guarantee_derivation(pa, lemmas, pa.delivery())
    return CompositionalCertificate(
        system=sys,
        components=tuple(pa.components),
        p=C,
        q=goal,
        fairness="strong",
        proof=root,
        component_certs=lemmas,
        guarantee=guarantee,
        guarantee_trail=trail,
        notes={
            "encoded_size": str(encoded_size(pa)),
            "stages": K,
            "clients": J,
            "total": N,
        },
    )
