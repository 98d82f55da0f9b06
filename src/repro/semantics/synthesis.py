"""Proof synthesis: from model-checking evidence to kernel certificates.

The paper's central observation is that some compositional steps are
mechanical while others ("constructing the universal property") require
creativity.  On *finite* instances, that creative gap closes: whenever the
fair-SCC model checker validates ``p ↝ q``, this module reconstructs a
proof object that the kernel re-checks using **only the paper's proof
system** (Transient, Implication, Disjunction, Transitivity, PSP — via the
derived ``Ensures`` and ``MetricInduction`` constructions; §2 of the
paper, and §4.6 for the metric-induction closing step).

Construction.  Work in the ``¬q`` transition graph restricted to the
*cone* ``R`` of ``p ∧ ¬q`` (its forward closure inside ``¬q``), which
lies in the *safe* region (states from which ``q`` is inevitable)
whenever the property holds:

- every SCC ``H`` of this region is **unfair** — some ``d ∈ D`` has no edge
  staying inside ``H`` — hence ``transient H`` holds with witness ``d``;
- all other edges of ``H`` stay in ``H`` or exit to lower SCCs or ``q``
  (canonical sinks-first emission order), hence ``H next (H ∨ exit)``;
- together: ``H ensures exit(H)`` — one :class:`~repro.core.rules.Ensures`
  step per SCC;
- the SCC emission order is a well-founded variant, closing the argument
  with one :class:`~repro.core.rules.MetricInduction`.

The synthesized certificate is linear in the number of SCCs, and checking
it is independent of the model checker's verdict — the kernel re-discharges
every ``transient``/``next``/validity obligation from scratch.

Certificates are **columnar**: every level's members are stacked into one
:class:`~repro.core.predicates.SupportTable` (level-major + globally
sorted column pairs), levels and the rank-gated exit ladder are zero-copy
views of it, and :func:`check_certificate_batched` re-checks the whole
tree with one vectorized pass per command over all levels — the kernel
that makes 10⁴–10⁵-level certificates checkable in seconds.  The
per-level tree walk (``proof.check``) is unchanged and serves as the
differential oracle (``tests/test_batched_check.py``).

Canonical-order invariant.  The variant metric *is* the SCC emission
order of :mod:`repro.semantics.scc`: components arrive sinks-first
(reverse topological, ties by smallest member state), so "every exit goes
to ``q`` or an earlier level" holds by construction.  That order is
canonical — any correct SCC partition of the same subgraph re-emits
identically — and it is preserved verbatim on the sparse tier: a
:class:`~repro.semantics.sparse.explorer.ReachableSubspace` keeps
``global_ids`` sorted, local ids preserve global order, so the local-id
sub-CSR condensation equals the dense condensation restricted to
reachable states *component for component*.  Dense and sparse synthesis
therefore produce certificates with identical level structure wherever
both tiers can run (pinned by ``tests/test_sparse_synthesis.py``).

Domains.  Synthesis is written once against an evaluation domain
(:mod:`repro.semantics.domain`), resolved by the same routing rule as
the checkers.  Spaces above the sparse threshold synthesize on the
reachable subspace: levels are
:class:`~repro.core.predicates.SupportPredicate` sets of reachable global
indices, obligations are discharged over the same subspace through the
frontier kernels (``Command.succ_of`` / ``Predicate.mask_at``), and
nothing of length ``space.size`` is ever allocated — certificates for
2⁴⁰-state compositions in working memory proportional to the
*reachable* set.  The resulting proof certifies the
**reachable-restricted** judgment (see the :mod:`repro.semantics.sparse`
package docstring).

Fairness.  ``fairness="strong"`` certifies the strong-fairness judgment
instead, swapping the per-level basis for
:class:`~repro.core.rules.StrongTransientBasis` (each safe-region SCC has
an *enabled-exiting* fair command rather than an unconditionally exiting
one) — this is what certifies the pipeline∘allocator delivery property,
which fails under weak fairness.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.predicates import (
    Predicate,
    PrefixSupportPredicate,
    SupportPredicate,
    SupportTable,
)
from repro.core.program import Program
from repro.core.rules import Ensures, Implication, LeadsToProof, MetricInduction
from repro.errors import BudgetExhausted, ProofError
from repro.semantics.budget import PartialResult
from repro.semantics.domain import domain_for
from repro.semantics.leadsto import fair_analysis

__all__ = ["synthesize_leadsto_proof", "check_certificate_batched"]


def synthesize_leadsto_proof(
    program: Program,
    p: Predicate,
    q: Predicate,
    *,
    fairness: str = "weak",
    budget=None,
    subspace=None,
    checkpoint=None,
) -> LeadsToProof:
    """Build a kernel-checkable certificate for ``p ↝ q``.

    ``budget`` / ``subspace`` form the normalized keyword set shared by
    every public checker (see ``docs/composition.md``).

    Raises :class:`ProofError` if the property does not hold (no proof
    exists), quoting the model checker's counterexample.

    ``fairness`` selects the scheduler assumption: ``"weak"`` (the
    paper's model — certificates use only the paper's proof system) or
    ``"strong"`` (certificates additionally use
    :class:`~repro.core.rules.StrongTransientBasis`).

    The domain comes from :func:`~repro.semantics.domain.domain_for`,
    like the checkers': ``subspace`` forces synthesis on an explicit
    :class:`~repro.semantics.sparse.explorer.ReachableSubspace`; by
    default spaces above the sparse threshold use the cached reachable
    subspace and smaller spaces synthesize over the full space.

    ``budget`` / ``checkpoint`` bound the sparse exploration feeding the
    synthesis; on exhaustion this returns a resumable
    ``status="unknown"`` :class:`~repro.semantics.budget.PartialResult`
    instead of a proof (callers must check for it — it is not a
    :class:`LeadsToProof` and refuses ``bool()``).
    """
    if fairness not in ("weak", "strong"):
        raise ProofError(f"unknown fairness notion {fairness!r}")
    rec = obs.get_recorder()
    with rec.span("synthesis.leadsto", program=program.name, fairness=fairness):
        try:
            domain = domain_for(
                program,
                "proof synthesis",
                budget=budget,
                subspace=subspace,
                checkpoint=checkpoint,
            )
        except BudgetExhausted as exc:
            arrow = "~>[strong]" if fairness == "strong" else "~>"
            return PartialResult.from_exhaustion(
                exc,
                kind="proof-synthesis",
                subject=f"{p.describe()} {arrow} {q.describe()}",
            )
        return _synthesize(domain, p, q, fairness)


def _synthesize(domain, p: Predicate, q: Predicate, fairness: str) -> LeadsToProof:
    """Synthesis over one domain (:mod:`repro.semantics.domain`).

    On a reachable subspace nothing of length ``space.size`` is
    allocated: the levels are
    :class:`~repro.core.predicates.SupportPredicate` sets of reachable
    global indices, and each ``exit`` predicate is ``q ∨ support(lower
    levels)`` — a combinator, not a mask.  The certificate then concludes
    the reachable-restricted judgment.
    """
    analysis = fair_analysis(domain, p, q, strong=(fairness == "strong"))

    bad = analysis.p_mask & analysis.avoid_mask
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        state = domain.state_at_local(k)
        steps = analysis.confining_path(k).shape[0] - 1
        raise ProofError(
            f"cannot synthesize a proof of {p.describe()} ~> {q.describe()}: "
            f"the property fails under {fairness} fairness on the "
            f"{domain.label} (scheduler can avoid q from {domain.where}"
            f"{state!r}, reaching a fair SCC in {steps} ¬q-confined step(s))"
        )

    if analysis.cond.count == 0:
        # p ⇒ q: a single Implication suffices.
        return Implication(p, q)

    # Levels: the SCCs of the cone of p ∧ ¬q (successors leaving ¬q are
    # dropped — exits to q end the obligation), in canonical emission
    # (sinks-first) order.  No p-state can avoid q, so neither can any
    # cone state: every cone SCC is safe.
    comps = [
        (k, domain.to_global(members)) for k, members in analysis.safe_components()
    ]
    return _columnar_induction(
        domain.space, p, q, comps, fairness, member_word=f"{domain.where}states"
    )


def _columnar_induction(
    space, p: Predicate, q: Predicate, comps, fairness: str, *, member_word: str
) -> MetricInduction:
    """Assemble the metric induction from SCC components, columnar.

    ``comps`` is the list of ``(scc_id, sorted global member indices)``
    in canonical emission order.  All levels are stacked into **one**
    :class:`~repro.core.predicates.SupportTable`; each level predicate is
    a zero-copy view of the level-major column, and every ``exit[n]`` is
    ``q ∨ prefix(<n)`` over the shared sorted ``(member, rank)`` columns
    — synthesis stays linear in total member count, and the batched
    kernel (:func:`check_certificate_batched`) checks the whole ladder
    with searchsorted rank lookups instead of per-level mask unions.
    ``comps`` carries global indices on every domain.
    """
    rec = obs.get_recorder()
    if rec.enabled:
        rec.add("synthesis.levels", len(comps))
        rec.add(
            "synthesis.level_members",
            int(sum(members.shape[0] for _, members in comps)),
        )
    table = SupportTable(space, [members for _, members in comps])
    levels: list[Predicate] = []
    subs: list[LeadsToProof] = []
    for n_level, (k, members) in enumerate(comps):
        level_pred = table.level_pred(
            n_level,
            f"level[{n_level}] (scc #{k}, {members.shape[0]} {member_word})",
        )
        exit_pred = q | table.prefix_pred(n_level, f"exit[{n_level}] (lower levels)")
        levels.append(level_pred)
        subs.append(Ensures(level_pred, exit_pred, fairness=fairness))
    return MetricInduction(p, q, levels, subs, support_table=table)


# ---------------------------------------------------------------------------
# Batched certificate checking
# ---------------------------------------------------------------------------


def _certificate_layout(proof: LeadsToProof):
    """The columnar view of a synthesized certificate, or ``None``.

    Verifies the *shape* the batched kernel relies on: a
    :class:`~repro.core.rules.MetricInduction` whose premises are
    ``Ensures(levelₙ, q ∨ prefix(<n))`` with every level a
    :class:`~repro.core.predicates.SupportPredicate`, the level predicate
    *identical* (``is``) to the premise's left-hand side, one fairness
    notion throughout, and one shared ``(member, rank)`` column pair
    behind the whole exit ladder.  Given that shape, every intermediate
    equality of the ``Ensures`` expansion is a predicate-calculus
    tautology for arbitrary table *contents* — so the batched kernel only
    needs to re-discharge coverage, the rank-gate entailments, and the
    per-level ``next``/``transient`` obligations (which it does from
    scratch; corrupt contents are refused, see
    ``tests/test_batched_check.py``).  Anything else — hand-written
    certificates, mask-backed levels — returns ``None`` and is checked by
    the per-level oracle.
    """
    from repro.core.predicates import _Composite
    from repro.semantics.obligations import CertificateLayout

    if not isinstance(proof, MetricInduction) or not proof.levels:
        return None
    fairness = None
    prefix_members = prefix_ranks = None
    level_members = []
    for n, (lv, sub) in enumerate(zip(proof.levels, proof.subs)):
        if not isinstance(sub, Ensures) or sub.p is not lv:
            return None
        if type(lv) is not SupportPredicate or lv.space is not proof.levels[0].space:
            return None
        if fairness is None:
            fairness = sub.fairness
        elif sub.fairness != fairness:
            return None
        exit_pred = sub.q
        if not (
            isinstance(exit_pred, _Composite)
            and exit_pred.op == "or"
            and len(exit_pred.parts) == 2
            and exit_pred.parts[0] is proof.q
            and type(exit_pred.parts[1]) is PrefixSupportPredicate
        ):
            return None
        prefix = exit_pred.parts[1]
        if prefix.cutoff != n or prefix.space is not lv.space:
            return None
        if prefix_members is None:
            prefix_members, prefix_ranks = prefix.members, prefix.ranks
        elif prefix.members is not prefix_members or prefix.ranks is not prefix_ranks:
            return None
        level_members.append(lv.members)
    return CertificateLayout(
        p=proof.p,
        q=proof.q,
        level_members=level_members,
        prefix_members=prefix_members,
        prefix_ranks=prefix_ranks,
        fairness=fairness,
    )


def check_certificate_batched(proof: LeadsToProof, program: Program, *, subspace=None):
    """Kernel-check ``proof`` with the batched columnar kernel.

    The drop-in fast path for :meth:`~repro.core.proofs.ProofNode.check`
    on synthesized certificates: instead of one
    ``check_next``/``check_transient``/validity call per induction level
    (ten obligations per level — the entire cost of checking 10⁴–10⁵-level
    certificates), each obligation family runs as **one vectorized pass
    per command over all levels** through
    :mod:`repro.semantics.obligations`, over the domain the per-level leaf
    checkers would use (reachable subspace above the sparse threshold,
    full space otherwise; ``subspace`` forces an explicit
    :class:`~repro.semantics.sparse.explorer.ReachableSubspace`, matching
    :func:`synthesize_leadsto_proof`).

    Verdict, node count and obligation count equal the per-level walk's;
    the result's ``mode`` reports ``"batched"``.  Certificates without
    the synthesized columnar shape (hand-built trees, ``Implication``
    shortcuts) fall back to ``proof.check(program)`` — the per-level path
    stays available as the differential oracle either way.
    """
    space = program.space
    rec = obs.get_recorder()
    layout = _certificate_layout(proof)
    if layout is not None and proof.levels[0].space is not space:
        layout = None
    if layout is None:
        with rec.span("proof.check", program=program.name, mode="per-level"):
            return proof.check(program)
    with rec.span(
        "proof.batched_check",
        program=program.name,
        levels=len(layout.level_members),
    ):
        from repro.semantics.obligations import check_columnar_obligations

        domain = domain_for(program, "the batched certificate check", subspace=subspace)
        # int64 headroom for the kernel's (level, member) search keys over
        # the domain (never binding under the default sparse node limit).
        if domain.size and len(layout.level_members) > (2**62) // domain.size:
            return proof.check(program)
        return check_columnar_obligations(domain, layout)
