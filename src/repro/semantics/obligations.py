"""Batched obligation kernels for columnar induction certificates.

The per-level proof kernel (:meth:`repro.core.proofs.ProofNode.check`)
discharges roughly ten semantic obligations per induction level — one
``check_next``/``check_transient``/validity call each, every one paying
predicate-mask evaluation over the working state set.  For the
certificates the synthesizer emits (10⁴–10⁵ levels on composition
stacks), that per-level loop is the entire cost of checking: the 4×4
philosopher-grid certificate synthesizes in seconds but its ~43k levels
made the old kernel walk infeasible.

This module is the batched twin.  It exploits the *columnar* certificate
layout (:class:`repro.core.predicates.SupportTable`): every level's
members sit in one level-major table, so each obligation family becomes
**one vectorized pass per command over all levels at once** —

- *coverage* (``p ⇒ q ∨ ⋁ levels``): one membership scatter;
- *exit-ladder entailment* (``exit[n] ⇒ q ∨ lower levels`` for every
  ``n``): one cumulative-membership comparison over the shared sorted
  ``(member, rank)`` columns — each entry is checked against its own
  tightest cutoff instead of re-deriving the quadratic ``lower`` union
  per level;
- *next* (``Lₙ∧¬Eₙ next Lₙ∨Eₙ``): per command, gather the successors of
  **all** level members once, decide membership by ``np.searchsorted``
  rank lookups against the stacked table, and reduce one flag per level
  with a segmented ``bincount``;
- *weak transient*: same stacked pass per fair command, accumulating
  "some fair command exits everywhere" per level;
- *strong transient*: the per-level SCC criterion, evaluated as **one**
  condensation of the disjoint union of the per-level subgraphs (a
  "position graph" whose nodes are table entries, so levels never merge)
  followed by one batched :func:`repro.semantics.leadsto._fair_flags`
  pass.

Everything else the per-level walk checks — the ``Ensures`` expansion's
intermediate equalities, the implication leaves ``X ⇒ exit`` and
``L ∧ exit ⇒ exit``, the declared disjunction left-hand sides — is a
predicate-calculus tautology *for any table contents* once the
certificate has the synthesized shape (the driver verifies that shape
structurally; see :func:`repro.semantics.synthesis.
check_certificate_batched`).  The batched kernel therefore discharges
exactly the same obligation set as the per-level oracle and counts it
identically; ``tests/test_batched_check.py`` pins verdict equality on
both tiers, including injected-fault certificates.

The kernel is written once against an evaluation domain
(:mod:`repro.semantics.domain`): global indices on the full space, local
ids on a reachable subspace, so nothing here ever allocates an array of
length ``space.size`` unless the domain *is* the space.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.commands import GuardedCommand, Skip
from repro.core.domains import EnumDomain
from repro.core.predicates import ExprPredicate, Predicate, _Composite, _Negation
from repro.core.proofs import ProofCheckResult, ProofFailure

__all__ = [
    "CertificateLayout",
    "check_columnar_obligations",
    "FootprintResult",
    "FootprintKernel",
    "FOOTPRINT_MAX",
]


@dataclass
class CertificateLayout:
    """The validated columnar view of a synthesized certificate.

    Extracted (and structurally verified) from a
    :class:`~repro.core.rules.MetricInduction` tree by
    :func:`repro.semantics.synthesis.check_certificate_batched`; consumed
    by :func:`check_columnar_obligations`.

    ``level_members[n]`` is level ``n``'s sorted global-index array (the
    backing array of its :class:`~repro.core.predicates.SupportPredicate`);
    ``prefix_members``/``prefix_ranks`` are the shared sorted columns of
    the rank-gated exit ladder.  The two describe the *same* table for a
    healthy certificate, but the kernel treats them independently — an
    injected inconsistency (corrupted member, broken rank gate) must be
    refused, not assumed away.
    """

    p: Predicate
    q: Predicate
    level_members: list[np.ndarray]
    prefix_members: np.ndarray
    prefix_ranks: np.ndarray
    fairness: str


def _rank_lookup(
    sorted_ids: np.ndarray, ranks: np.ndarray, ids: np.ndarray, sentinel: int
) -> np.ndarray:
    """``ranks`` gathered at the positions of ``ids`` in ``sorted_ids``
    (``sentinel`` where absent)."""
    out = np.full(ids.shape[0], sentinel, dtype=np.int64)
    if sorted_ids.size:
        pos = np.searchsorted(sorted_ids, ids)
        clipped = np.minimum(pos, sorted_ids.size - 1)
        hit = (pos < sorted_ids.size) & (sorted_ids[clipped] == ids)
        out[hit] = ranks[clipped[hit]]
    return out


def _seg_any(level_ids: np.ndarray, flags: np.ndarray, n_levels: int) -> np.ndarray:
    """Per-level "any flag set" — the segmented reduction over the
    level-major table (``bincount`` is empty-segment-safe, unlike
    ``logical_or.reduceat``)."""
    if not flags.any():
        return np.zeros(n_levels, dtype=bool)
    return np.bincount(level_ids[flags], minlength=n_levels) > 0


#: Cap on the example states decoded per obligation family (a corrupted
#: 10⁵-level certificate should refuse with a handful of witnesses, not
#: one failure record per level).
_MAX_REPORTED = 5


def check_columnar_obligations(domain, layout: CertificateLayout) -> ProofCheckResult:
    """Discharge every obligation of a columnar certificate, batched.

    All ids live in the domain's local universe ``[0, domain.size)``
    (:mod:`repro.semantics.domain`): the layout's member arrays are
    mapped into it first, dropping entries outside the domain — they are
    invisible to every mask the per-level oracle computes over it.
    Successors come from the domain's ``succ_local`` columns (the cached
    tables on the full space), and enabledness (strong certificates
    only) is evaluated at the member rows alone.

    Returns a :class:`~repro.core.proofs.ProofCheckResult` whose verdict,
    node count and obligation count equal the per-level oracle's on the
    same certificate.
    """
    n = domain.size
    p_mask = domain.pred_mask(layout.p)
    q_mask = domain.pred_mask(layout.q)
    level_members = [domain.restrict(m)[0] for m in layout.level_members]
    prefix_members, kept = domain.restrict(layout.prefix_members)
    prefix_ranks = layout.prefix_ranks[kept]
    commands = domain.program.commands
    fair = domain.program.fair_commands
    strong = layout.fairness == "strong"
    decode = domain.state_at_local
    tier = domain.label
    n_levels = len(level_members)
    sizes = np.array([m.shape[0] for m in level_members], dtype=np.int64)
    mem = (
        np.concatenate(level_members)
        if n_levels
        else np.empty(0, dtype=np.int64)
    )
    lvl = np.repeat(np.arange(n_levels, dtype=np.int64), sizes)
    result = ProofCheckResult(mode="batched")
    # One metric-induction node plus seven nodes per level (ensures and
    # its six-node expansion); one coverage obligation plus ten per level
    # — the same accounting the per-level walk produces.
    result.nodes_checked = 1 + 7 * n_levels
    result.obligations_checked = 1 + 10 * n_levels
    rec = obs.get_recorder()
    if rec.enabled:
        # Per-phase breakdown of the 1 + 10n obligation total: one
        # coverage side condition, then per level one exit-ladder
        # entailment, one next, one transient, and the seven structural
        # tautologies of the synthesized shape.
        rec.add("proof.obligations.coverage", 1)
        rec.add("proof.obligations.exit_ladder", n_levels)
        rec.add("proof.obligations.next", n_levels)
        rec.add("proof.obligations.transient", n_levels)
        rec.add("proof.obligations.structural", 7 * n_levels)

    def report(path: str, message: str, bad_ids: np.ndarray) -> None:
        shown = bad_ids[:_MAX_REPORTED]
        states = ", ".join(repr(decode(int(i))) for i in shown)
        more = (
            f" (+{bad_ids.size - shown.size} more)"
            if bad_ids.size > shown.size
            else ""
        )
        result.failures.append(
            ProofFailure(path, f"{message}: e.g. {states}{more} [{tier}]")
        )

    # ------------------------------------------------------------------
    # Coverage: p ⇒ q ∨ ⋁ levels (the metric-induction side condition).
    # ------------------------------------------------------------------
    covered = np.zeros(n, dtype=bool)
    if mem.size:
        covered[mem] = True
    bad = np.flatnonzero(p_mask & ~q_mask & ~covered)
    if bad.size:
        report(
            "metric-induction",
            "p is not covered by q and the levels",
            bad,
        )

    # ------------------------------------------------------------------
    # Exit-ladder entailment: exit[m] ⇒ q ∨ (levels below m), for every
    # m, collapsed to one pass: each sorted-table entry (s, r) belongs to
    # every exit[m] with m > r, and the tightest of those demands that s
    # is in q or in some level ≤ r.  "Some level ≤ r" is a cumulative-
    # membership comparison against the minimum level actually containing
    # s (per the level-member arrays, which the gate must agree with).
    # ------------------------------------------------------------------
    if mem.size:
        # np.unique returns first-occurrence indices; mem is level-major,
        # so the first occurrence of a state carries its minimum level.
        uniq_mem, first = np.unique(mem, return_index=True)
        min_level = lvl[first]
    else:
        uniq_mem = np.empty(0, dtype=np.int64)
        min_level = np.empty(0, dtype=np.int64)
    # Entries whose rank r can gate some checked exit (m ≤ n_levels - 1
    # needs r < m, i.e. r ≤ n_levels - 2; corrupted negative ranks gate
    # every exit and are caught by the same comparison).
    active_gate = prefix_ranks <= n_levels - 2
    if active_gate.any():
        gids = prefix_members[active_gate]
        grank = prefix_ranks[active_gate]
        glev = _rank_lookup(uniq_mem, min_level, gids, n_levels)
        viol = ~q_mask[gids] & ~(glev <= grank)
        vidx = np.flatnonzero(viol)
        if vidx.size:
            first_level = int(max(grank[vidx[0]] + 1, 0))
            report(
                "metric-induction",
                f"level {first_level}: premise rhs does not entail "
                "(q ∨ lower levels) — the rank-gated exit ladder admits "
                "states outside every lower level",
                gids[vidx],
            )

    if n_levels == 0:
        return result

    # ------------------------------------------------------------------
    # Stacked-table membership machinery.  Keys (level, member) are
    # strictly increasing in level-major order, so one searchsorted per
    # command decides "successor lands in the *same* level" for every
    # member at once; the hit position doubles as the successor's table
    # position (the node id of the strong-fairness position graph).
    # ------------------------------------------------------------------
    keys = lvl * np.int64(n) + mem

    def same_level_pos(succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(hit mask, table position) of each member's successor within
        its own level; position is the table size where absent."""
        k = lvl * np.int64(n) + succ
        pos = np.searchsorted(keys, k)
        clipped = np.minimum(pos, keys.size - 1)
        hit = (pos < keys.size) & (keys[clipped] == k)
        pos = np.where(hit, clipped, keys.size)
        return hit, pos

    q_mem = q_mask[mem]
    pr_mem = _rank_lookup(prefix_members, prefix_ranks, mem, n_levels)
    # pnq: member of its level, outside exit[level] = q ∨ prefix(<level).
    active = ~q_mem & ~(pr_mem < lvl)

    # ------------------------------------------------------------------
    # Next + transient, one stacked pass per command.
    # ------------------------------------------------------------------
    next_fail = np.zeros(n_levels, dtype=bool)
    next_example: dict[int, tuple[str, int, int]] = {}
    trans_ok = np.zeros(n_levels, dtype=bool)
    fair_names = {cmd.name for cmd in fair}
    in_level_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for cmd in commands:
        name = cmd.name
        succ = domain.succ_local(cmd)[mem]
        hit, pos = same_level_pos(succ)
        in_level_cache[name] = (hit, pos)
        q_succ = q_mask[succ]
        pr_succ = _rank_lookup(prefix_members, prefix_ranks, succ, n_levels)
        # next: successor must be in L ∨ exit = L ∨ q ∨ prefix(<level).
        bad = active & ~(hit | q_succ | (pr_succ < lvl))
        fails = _seg_any(lvl, bad, n_levels)
        fresh = fails & ~next_fail
        if fresh.any():
            bad_idx = np.flatnonzero(bad)
            _, firsts = np.unique(lvl[bad_idx], return_index=True)
            for j in firsts:
                i = int(bad_idx[int(j)])
                next_example.setdefault(
                    int(lvl[i]), (name, int(mem[i]), int(succ[i]))
                )
            next_fail |= fails
        if not strong and name in fair_names:
            # weak transient: succ stays in the same level's pnq set; a
            # fair command is helpful for a level iff no member is stuck.
            stuck = active & hit & ~q_succ & ~(pr_succ < lvl)
            trans_ok |= ~_seg_any(lvl, stuck, n_levels)

    for m in sorted(next_example)[:_MAX_REPORTED]:
        name, src, dst = next_example[m]
        result.failures.append(ProofFailure(
            f"metric-induction.{m}:ensures.0:disjunction.0:transitivity.0:psp",
            f"[FAILS] next: command {name} steps {decode(src)!r} to "
            f"{decode(dst)!r}, which leaves level ∨ exit [{tier}]",
        ))
    if len(next_example) > _MAX_REPORTED:
        result.failures.append(ProofFailure(
            "metric-induction",
            f"... {len(next_example) - _MAX_REPORTED} more level(s) fail "
            "their next obligation",
        ))

    # ------------------------------------------------------------------
    # Transient per level: weak — some fair command exits the level's
    # pnq set from every member; strong — the per-level SCC criterion on
    # the disjoint union of the per-level subgraphs.
    # ------------------------------------------------------------------
    act_count = np.bincount(lvl[active], minlength=n_levels)
    if strong:
        trans_fail = _strong_transient_fail(
            domain, n_levels, lvl, active, mem, in_level_cache
        )
        kind = "transient-strong"
        why = "a strongly-fair execution can stay inside the level forever"
    else:
        if not fair:
            trans_ok = act_count == 0
        else:
            trans_ok |= act_count == 0
        trans_fail = ~trans_ok
        kind = "transient"
        why = (
            "no single fair command falsifies the level's p ∧ ¬exit from "
            "every member"
            if fair
            else "the program has no fair commands (D = ∅)"
        )
    for m in np.flatnonzero(trans_fail)[:_MAX_REPORTED]:
        m = int(m)
        members_m = mem[(lvl == m) & active]
        example = f": e.g. {decode(int(members_m[0]))!r}" if members_m.size else ""
        result.failures.append(ProofFailure(
            f"metric-induction.{m}:ensures.0:disjunction.0:transitivity"
            f".0:psp.0:{kind}",
            f"[FAILS] {kind}: {why}{example} [{tier}]",
        ))
    extra_t = int(trans_fail.sum()) - _MAX_REPORTED
    if extra_t > 0:
        result.failures.append(ProofFailure(
            "metric-induction",
            f"... {extra_t} more level(s) fail their {kind} obligation",
        ))
    return result


def _strong_transient_fail(
    domain,
    n_levels: int,
    lvl: np.ndarray,
    active: np.ndarray,
    mem: np.ndarray,
    in_level_cache: dict[str, tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """Per-level strong-transient refusals, via one SCC pass.

    The per-level checker condenses the subgraph induced on each level's
    ``p∧¬exit`` set separately.  Batched, that is the condensation of the
    **disjoint union**: nodes are table positions (so overlapping or
    duplicated levels stay separate), edges connect a position to its
    successor's position *within the same level* only.  One
    :func:`repro.semantics.scc.condensation` call plus one batched
    :func:`repro.semantics.leadsto._fair_flags` pass then evaluates the
    strong-fairness criterion for every level's every SCC at once; a
    level fails iff one of its components is flagged.
    """
    from repro.semantics.leadsto import _fair_flags
    from repro.semantics.scc import condensation

    t = mem.shape[0]
    # Position tables over t + 1 nodes (the last is the "outside" sink,
    # excluded from the mask, so exits become cross-mask edges).
    mask = np.append(active, False)
    # Sentinel self-entry per table (a self-loop, dropped).
    by_name = {name: np.append(pos, t) for name, (_, pos) in in_level_cache.items()}
    cond = condensation(mask, list(by_name.values()))
    if cond.count == 0:
        return np.zeros(n_levels, dtype=bool)
    fair = domain.program.fair_commands
    fair_tables = [by_name[cmd.name] for cmd in fair]
    enabled_rows = [np.append(domain.enabled_at(cmd, mem), False) for cmd in fair]
    flags = _fair_flags(cond, fair_tables, enabled=enabled_rows)
    fail = np.zeros(n_levels, dtype=bool)
    fail[lvl[cond.first_members()[flags]]] = True
    return fail


# ===========================================================================
# Footprint obligation kernel (compositional certificates)
# ===========================================================================
#
# The compositional kernel (repro.semantics.compositional) re-checks
# assume–guarantee certificates for systems whose encoded product space is
# beyond *any* tier — even sparse int64 indexing.  It can, because every
# obligation of the rule tree is local: a per-command wp check mentions
# only vars(p) ∪ vars(q) ∪ vars(command), and the all-states (inductive)
# semantics of this logic quantifies over *every* assignment of the
# remaining variables — they are free coordinates, so an obligation holds
# over the product iff it holds over the small space of the variables it
# mentions.  FootprintKernel is the evaluator behind that observation:
# it projects each obligation onto its footprint, builds (and caches) the
# tiny StateSpace over exactly those variables, and decides the judgment
# exactly there.
#
# Two sound strengthenings keep footprints small when a *global*
# hypothesis (e.g. a token-conservation sum over every variable) shows up:
#
# - constant bindings: a hypothesis conjunct ``v == k`` removes ``v`` from
#   the space and pins it in the evaluation environment instead;
# - hypothesis projection: conjuncts whose variables would blow the
#   footprint cap are *dropped* (checking a stronger obligation).  A check
#   that fails after dropping reports the drop — the refusal may be a
#   projection artifact, never an unsound acceptance.
#
# Linear invariants dodge the global footprint altogether:
# ``stable (Σ aᵥ·v = k)`` holds if every command's weighted write-delta
# is zero under its guard — an obligation over vars(command) only
# (check_linear_stable).  The converse fails: a command may change the
# sum only from states where it is not ``k``.
#
# Composed systems are copies of a few component shapes glued along shared
# variables, so most obligations repeat up to a renaming of variables; the
# kernel decides each obligation *shape* once (FootprintKernel._shape).


@dataclass
class FootprintResult:
    """Outcome of footprint-projected obligations (``obligations`` of
    them), readable as a proof-check verdict
    (:func:`repro.core.proofs.discharge`)."""

    ok: bool
    message: str = ""
    dropped: tuple[str, ...] = ()
    obligations: int = 1

    def __bool__(self) -> bool:
        return self.ok

    def explain(self) -> str:
        return self.message

    def relabel(self, kind: str, subject: str, message: str | None = None):
        """A footprint verdict names no property, so it answers any
        property as it is, a lazy message still unbuilt."""
        return self

    def reworded(self, prefix, obligations: int = 1) -> "FootprintResult":
        """This failure, its message after ``prefix()``; a refusal stays
        a refusal."""
        message = prefix() + self.message
        return FootprintResult(False, message, self.dropped, obligations)


class _LazyFailure(FootprintResult):
    """A failing verdict whose message is built on first read.

    Most failing decisions are never explained: a transient candidate
    that does not exit the region is followed by the next one, and only
    the last failure's message is read, only when every candidate
    fails.  ``explain`` builds the text (a decided failure prints its
    predicates and decodes its first counterexample; a failure answered
    by shape re-decides the real obligation) without moving a counter.
    """

    def __init__(
        self, explain, dropped: tuple[str, ...] = (), obligations: int = 1
    ) -> None:
        self.ok = False
        self.dropped = dropped
        self.obligations = obligations
        self._explain = explain
        self._message: str | None = None

    @property
    def message(self) -> str:
        if self._message is None:
            self._message = self._explain()
        return self._message

    def reworded(self, prefix, obligations: int = 1) -> "FootprintResult":
        return _LazyFailure(lambda: prefix() + self.message, self.dropped, obligations)


#: Largest footprint space the kernel will enumerate (per obligation).
#: Compositional certificates keep obligations a handful of variables
#: wide; anything bigger is refused, never silently explored.
FOOTPRINT_MAX = 1 << 21

#: One identifier token of printed text: a variable name (``c[3]``
#: included), an enum label, or a printer keyword.  The group makes
#: ``split`` put the tokens at the odd positions of its result.
_IDENT = re.compile(r"([A-Za-z_][A-Za-z0-9_]*(?:\[[0-9]+(?:,[0-9]+)*\])?)")

#: Identifier tokens the printers emit on their own; a variable so named
#: would be indistinguishable from them in a shape.
_PRINTER_WORDS = frozenset(
    {"true", "false", "min", "max", "if", "then", "else", "skip"}
)


_NO_LABELS: frozenset[str] = frozenset()


def _symbolic(pred) -> bool:
    """True iff ``pred`` has an expression form (``as_expr`` succeeds), so
    its ``describe()`` text determines it."""
    if isinstance(pred, ExprPredicate):
        return True
    if isinstance(pred, _Composite):
        return all(_symbolic(p) for p in pred.parts)
    if isinstance(pred, _Negation):
        return _symbolic(pred.inner)
    return False


class FootprintKernel:
    """Exact obligation evaluation over per-obligation variable footprints.

    One instance per certificate check.  Footprint spaces are cached across
    obligations (the same ``{done, c[i], c[i+1]}``-shaped space recurs per
    pipeline stage), and so are decisions: ``check_wp`` and ``entails``
    decide each obligation *shape* once (:meth:`_shape`), so a
    linear-in-components certificate checks with a bounded number of
    small enumerations in all.  ``decided`` and ``by_shape`` count, per
    entry point, the obligations decided and those answered by shape.
    """

    def __init__(self, *, max_states: int = FOOTPRINT_MAX) -> None:
        self.max_states = int(max_states)
        self._spaces: dict[tuple, object] = {}
        self.evaluations = 0
        # shape → (ok, footprint evaluations the decision took, refused)
        self._memo: dict[tuple, tuple[bool, int, bool]] = {}
        self._templates: dict[tuple, tuple | None] = {}
        # ordered variables → (them, their domain ids, enum labels),
        # shared by every template over those variables
        self._signatures: dict[tuple, tuple] = {}
        self._domain_ids: dict = {}
        # id(command) → (the command, pinned; its key part)
        self._command_parts: dict[int, tuple[object, tuple | None]] = {}
        # (id(equality), id(command)) → (both, pinned; the command's
        # guard and its weighted write delta = 0, or None if it has none)
        self._deltas: dict[tuple, tuple] = {}
        # Held for one rule node, dropped by release(): id(predicate) →
        # (the predicate, pinned; its key part), id-tuple of predicates
        # → their joint key, and (id(expr), id(space), bindings) →
        # (the expression, pinned; its mask).
        self._parts: dict[int, tuple[object, tuple | None]] = {}
        self._joints: dict[tuple, tuple | None] = {}
        self._masks: dict[tuple, tuple[object, np.ndarray]] = {}
        self.decided = {"check_wp": 0, "entails": 0}
        self.by_shape = {"check_wp": 0, "entails": 0}

    # -- spaces ------------------------------------------------------------

    def _space(self, variables):
        from repro.core.state import StateSpace

        ordered = tuple(sorted(variables, key=lambda v: v.name))
        space = self._spaces.get(ordered)
        if space is None:
            space = StateSpace(list(ordered))
            self._spaces[ordered] = space
        return space

    def _fits(self, variables) -> bool:
        size = 1
        for v in variables:
            size *= v.domain.size
            if size > self.max_states:
                return False
        return True

    # -- predicate evaluation ---------------------------------------------

    @staticmethod
    def _binding_consistent(var, value) -> bool:
        """False when the pinned value lies outside the variable's domain
        (the hypothesis conjunct is unsatisfiable — vacuous truth)."""
        from repro.core.domains import IntRange

        dom = var.domain
        if isinstance(dom, IntRange):
            return dom.lo <= value <= dom.hi
        return any(value == v for v in dom.values())

    def _env(self, space, bindings, rows=None) -> dict:
        """The evaluation environment of ``space`` (restricted to
        ``rows``), with out-of-footprint variables pinned by
        ``bindings``."""
        columns = space.var_arrays()
        if rows is None:
            env = dict(columns)
        else:
            env = {v: column[rows] for v, column in columns.items()}
        for var, value in bindings.items():
            env[var] = np.int64(value) if isinstance(value, int) else value
        return env

    @staticmethod
    def _mask_in(pred, env, n: int) -> np.ndarray:
        arr = np.asarray(pred.as_expr().eval_vec(env), dtype=bool)
        if arr.ndim == 0:
            arr = np.broadcast_to(arr, (n,))
        return arr

    def _hyp_mask(self, pred, space, bindings, scope) -> np.ndarray:
        """``pred``'s mask over ``space``, reused until :meth:`release`:
        a region's conjuncts recur as the hypothesis of every command's
        ``wp`` check.  Keyed by the expression object (pinned), never by
        its text, so two spellings of one text cannot collide."""
        expr = pred.as_expr()
        key = (id(expr), id(space), scope)
        hit = self._masks.get(key)
        if hit is not None:
            return hit[1]
        mask = self._mask_in(pred, self._env(space, bindings), space.size)
        self._masks[key] = (expr, mask)
        return mask

    def release(self) -> None:
        """Drop what is held for one judgment: hypothesis masks and the
        key parts of predicates.  The footprint domain calls this as it
        starts each judgment, so the judgment's obligations share them
        (its region meets one command after another) and the kernel's
        memory stays flat over a check."""
        self._parts.clear()
        self._joints.clear()
        self._masks.clear()

    def _counterexample(self, hyps, goal_disjuncts, variables, bindings):
        """The first footprint row where every ``hyps`` conjunct holds
        and no goal disjunct (a conjunct list) does, or ``None``.

        The goal is evaluated only on the rows where the hypothesis
        holds, so the first bad row is the whole space's first one.
        """
        if not variables:
            env = dict(bindings)

            def holds(p) -> bool:
                return bool(p.as_expr().eval(env))

            if all(holds(h) for h in hyps) and not any(
                all(holds(g) for g in parts) for parts in goal_disjuncts
            ):
                return 0
            return None
        space = self._space(variables)
        scope = tuple(bindings.items())
        hmask = None
        for h in hyps:
            m = self._hyp_mask(h, space, bindings, scope)
            hmask = m if hmask is None else hmask & m
        rows = None
        if hmask is not None:
            rows = np.flatnonzero(hmask)
            if rows.size == 0:
                return None
            if rows.size == space.size:
                rows = None
        n = space.size if rows is None else rows.size
        env = self._env(space, bindings, rows)
        gmask = np.zeros(n, dtype=bool)
        for parts in goal_disjuncts:
            part = self._mask_in(parts[0], env, n)
            for g in parts[1:]:
                part = part & self._mask_in(g, env, n)
            gmask |= part
        bad = np.flatnonzero(~gmask)
        if bad.size == 0:
            return None
        return int(bad[0]) if rows is None else int(rows[bad[0]])

    def _example(self, variables, bindings, row: int) -> str:
        if not variables:
            items = bindings.items()
        else:
            state = self._space(variables).state_at(row)
            items = list(state.items()) + list(bindings.items())
        body = ", ".join(f"{v.name}={k}" for v, k in items)
        return "{" + body + "}"

    # -- decisions by shape -----------------------------------------------

    def _shape(self, kind, preds, cmd=None):
        """The memo key of an obligation, or ``None`` to bypass the memo.

        The key is the obligation's printed text — the ``describe()`` of
        its predicates and of the command body, never the command name —
        with each variable occurrence replaced by its first-occurrence
        index, plus the ordered tuple of those variables' domains.  Two
        obligations with one key are the same judgment up to a renaming
        of variables that preserves domains, so they have one verdict.
        Text that cannot carry that guarantee bypasses the memo: a
        predicate with no expression form (its ``describe()`` need not
        determine it), a command other than the three symbolic kinds, a
        variable named like an enum label of a domain in the footprint or
        like a printer keyword, and two variables sharing a name.

        The key is built from parts, each once: every predicate and
        command is templated once (:meth:`_part`), and the predicates'
        joint key once per tuple of predicates (:meth:`_joint`) — the
        ``pre``/``post`` of a ``next`` obligation meet one command after
        another, so only the command's variables are placed per call.
        Domains enter the key as per-kernel integer ids, so hashing it
        never calls back into Python.
        """
        joint = self._joint(preds)
        if joint is None:
            return None
        joint_key, order, variables, labels = joint
        if cmd is None:
            return (kind, joint_key)
        part = self._command_part(cmd)
        if part is None:
            return None
        text, part_vars, part_domains, part_labels = part
        local = []
        domains = []
        for v, d in zip(part_vars, part_domains):
            i = order.get(v.name)
            if i is None:
                local.append(len(order) + len(domains))
                domains.append(d)
            elif variables[i] is not v and variables[i] != v:
                return None  # two variables share a name
            else:
                local.append(i)
        taken = labels | part_labels
        if taken and not (
            taken.isdisjoint(order) and taken.isdisjoint(v.name for v in part_vars)
        ):
            return None
        return (kind, joint_key, text, tuple(local), tuple(domains))

    def _joint(self, preds):
        """``(key, name → index, variables, enum labels)`` of the
        predicates together — the key holds their renamed texts, the
        global first-occurrence index of each local variable, and the
        variables' domain ids — or ``None`` to bypass the memo.  Held per
        tuple of (pinned) predicates until :meth:`release`."""
        parts = [self._part(p) for p in preds]
        ids = tuple(map(id, preds))
        if ids not in self._joints:
            self._joints[ids] = self._join(parts)
        return self._joints[ids]

    @staticmethod
    def _join(parts):
        if None in parts:
            return None
        order: dict[str, int] = {}
        variables = []
        domains = []
        glue = []
        labels = _NO_LABELS
        for _, part_vars, part_domains, part_labels in parts:
            local = []
            for v, d in zip(part_vars, part_domains):
                i = order.setdefault(v.name, len(variables))
                if i == len(variables):
                    variables.append(v)
                    domains.append(d)
                elif variables[i] is not v and variables[i] != v:
                    return None  # two variables share a name
                local.append(i)
            glue.append(tuple(local))
            labels = labels | part_labels
        if not labels.isdisjoint(order):
            return None
        key = (tuple(part[0] for part in parts), tuple(glue), tuple(domains))
        return key, order, variables, labels

    def _part(self, pred):
        """The key part of a predicate (:meth:`_template`), computed once
        per object until :meth:`release`; ``None`` if it bypasses the
        memo.  The predicate is pinned meanwhile, so its id stays its
        own."""
        hit = self._parts.get(id(pred))
        if hit is not None:
            return hit[1]
        part = None
        if _symbolic(pred):
            part = self._template(pred.describe(), pred.variables())
        self._parts[id(pred)] = (pred, part)
        return part

    def _command_part(self, cmd):
        """:meth:`_part` of a command, held for the kernel's life (a
        check meets the same few commands at every node)."""
        hit = self._command_parts.get(id(cmd))
        if hit is not None:
            return hit[1]
        part = None
        if type(cmd) in (GuardedCommand, Skip):
            part = self._template(cmd.describe(), cmd.reads() | cmd.writes())
        self._command_parts[id(cmd)] = (cmd, part)
        return part

    def _template(self, text, variables):
        """``text`` with each variable occurrence replaced by its local
        first-occurrence index, as ``(renamed text, variables, domain
        ids, enum labels)`` — the variables in first-occurrence order,
        then their domains' per-kernel ids and the labels of their enum
        domains.  ``None`` if ``text`` cannot be renamed unambiguously:
        it contains the ``#`` index marker, two of its variables share a
        name, or one is named like a printer keyword.  Cached per
        kernel."""
        key = (text, variables)
        if key in self._templates:
            return self._templates[key]
        by_name = {v.name: v for v in variables}
        template = None
        if (
            "#" not in text
            and len(by_name) == len(variables)
            and _PRINTER_WORDS.isdisjoint(by_name)
        ):
            order: dict[str, int] = {}
            tokens = _IDENT.split(text)
            for i in range(1, len(tokens), 2):
                if tokens[i] in by_name:
                    tokens[i] = f"#{order.setdefault(tokens[i], len(order))}"
            ordered = tuple(by_name[n] for n in order)
            template = ("".join(tokens), *self._signature(ordered))
        self._templates[key] = template
        return template

    def _signature(self, ordered):
        """``(ordered, domain ids, enum labels)``, one shared copy per
        tuple of variables."""
        sig = self._signatures.get(ordered)
        if sig is None:
            labels = frozenset(
                str(label)
                for v in ordered
                if isinstance(v.domain, EnumDomain)
                for label in v.domain.labels
            )
            domain_ids = tuple(
                self._domain_ids.setdefault(v.domain, len(self._domain_ids))
                for v in ordered
            )
            sig = (ordered, domain_ids, labels or _NO_LABELS)
            self._signatures[ordered] = sig
        return sig

    def _by_shape(self, kind, key, decide) -> FootprintResult:
        """Answer ``decide()`` from the memo under ``key``, or decide it.

        A hit adds the evaluations the original decision took, so the
        counters equal an unmemoized run's.  A failing hit is returned
        with its message unbuilt; reading it re-decides the real
        obligation, leaving the counters untouched.  A refusal stays a
        refusal: a plain failing :class:`FootprintResult`, never a
        decided :class:`_LazyFailure`.  Results that dropped hypothesis
        conjuncts are never stored.
        """
        hit = self._memo.get(key) if key is not None else None
        if hit is not None:
            ok, evaluations, refused = hit
            self.by_shape[kind] += 1
            self.evaluations += evaluations
            if ok:
                return FootprintResult(True)
            if refused:
                return FootprintResult(False, self._replay(decide))
            return _LazyFailure(lambda: self._replay(decide))
        before = self.evaluations
        res = decide()
        self.decided[kind] += 1
        if key is not None and not res.dropped:
            refused = not res.ok and not isinstance(res, _LazyFailure)
            self._memo[key] = (res.ok, self.evaluations - before, refused)
        return res

    def _replay(self, decide) -> str:
        before = self.evaluations
        try:
            return decide().message
        finally:
            self.evaluations = before

    # -- entailment / equality --------------------------------------------

    def entails(self, hyp, concl) -> FootprintResult:
        """Validity ``hyp ⇒ concl`` over the (never materialized) product.

        Splits a disjunctive hypothesis, detects contradictory conjunct
        pairs, extracts constant bindings, deletes conclusion conjuncts
        already present in the hypothesis, then decides the remainder
        exactly on its footprint — dropping oversized hypothesis
        conjuncts (sound strengthening) when it must.  Decided once per
        shape (:meth:`_shape`).
        """
        return self._by_shape(
            "entails",
            self._shape("entails", (hyp, concl)),
            lambda: self._entails(hyp, concl),
        )

    def _entails(self, hyp, concl) -> FootprintResult:
        from repro.core.compositional import pred_disjuncts

        for d in pred_disjuncts(hyp):
            res = self._entails_case(d, concl)
            if not res.ok:
                return res
        return FootprintResult(True)

    def _entails_case(self, hyp, concl) -> FootprintResult:
        from repro.core.compositional import (
            constant_binding,
            pred_conjuncts,
            pred_disjuncts,
        )
        from repro.core.expressions import Not

        conjs = pred_conjuncts(hyp)
        descs = [c.describe() for c in conjs]
        desc_set = set(descs)
        # Contradictory hypothesis (x ∧ ¬x): vacuously valid.  Negation
        # may live at the predicate level (_Negation) or inside the
        # expression (ExprPredicate(Not ...)) after ``&`` merging.
        for c in conjs:
            if isinstance(c, _Negation) and c.inner.describe() in desc_set:
                return FootprintResult(True)
            if (
                isinstance(c, ExprPredicate)
                and isinstance(c.expr, Not)
                and ExprPredicate(c.expr.operand).describe() in desc_set
            ):
                return FootprintResult(True)
        # Constant bindings v == k pin variables instead of widening the
        # footprint; an out-of-domain pin makes the hypothesis vacuous.
        bindings: dict = {}
        kept: list = []
        for c in conjs:
            bound = constant_binding(c)
            if bound is not None:
                var, value = bound
                if not self._binding_consistent(var, value):
                    return FootprintResult(True)
                prior = bindings.get(var, value)
                if prior != value:
                    return FootprintResult(True)  # v=a ∧ v=b, a≠b
                bindings[var] = value
            else:
                kept.append(c)
        # Delete conclusion conjuncts the hypothesis already contains
        # (per disjunct of the conclusion): p ∧ r ⇒ p ∧ s reduces to
        # (p ∧ r) ⇒ s.  Purely syntactic (describe-equality), and sound:
        # the deleted conjunct holds under the hypothesis by assumption.
        goal_disjuncts = []
        for gd in pred_disjuncts(concl):
            parts = [
                g for g in pred_conjuncts(gd) if g.describe() not in desc_set
            ]
            if not parts:
                return FootprintResult(True)  # some disjunct fully implied
            goal_disjuncts.append(parts)
        goal_vars = set()
        for parts in goal_disjuncts:
            for g in parts:
                goal_vars |= set(g.variables()) - set(bindings)
        if not self._fits(goal_vars):
            return FootprintResult(
                False,
                "refused: the conclusion's own footprint exceeds the "
                f"kernel cap ({len(goal_vars)} variables)",
            )
        # Greedy hypothesis projection: keep conjuncts while the joint
        # footprint stays enumerable; drop the rest (strengthening).
        foot = set(goal_vars)
        used: list = []
        dropped: list[str] = []
        for c in kept:
            cv = set(c.variables()) - set(bindings)
            if self._fits(foot | cv):
                foot |= cv
                used.append(c)
            else:
                dropped.append(c.describe())
        variables = sorted(foot, key=lambda v: v.name)
        relevant = {v for v in bindings if any(
            v in c.variables() for c in used
        ) or any(
            v in g.variables() for parts in goal_disjuncts for g in parts
        )}
        live_bindings = {v: bindings[v] for v in relevant}
        self.evaluations += len(used) + sum(map(len, goal_disjuncts))
        row = self._counterexample(used, goal_disjuncts, variables, live_bindings)
        if row is None:
            return FootprintResult(True, dropped=tuple(dropped))
        note = (
            f" (after dropping oversized hypothesis conjunct(s) "
            f"{dropped} — the refusal may be a projection artifact)"
            if dropped
            else ""
        )

        def explain() -> str:
            example = self._example(variables, bindings, row)
            return (
                f"{hyp.describe()} ⇒ {concl.describe()} fails on the "
                f"footprint at {example}{note}"
            )

        return _LazyFailure(explain, dropped=tuple(dropped))

    def equal(self, a, b) -> FootprintResult:
        """Semantic equality, as entailment both ways."""
        if a is b or a.describe() == b.describe():
            return FootprintResult(True)
        res = self.entails(a, b)
        if not res.ok:
            return res
        return self.entails(b, a)

    # -- command obligations ----------------------------------------------

    def check_wp(self, pre, cmd, post) -> FootprintResult:
        """``pre ⇒ wp.cmd.post`` on the footprint of (pre, post, cmd),
        decided once per shape (:meth:`_shape`) — a hit never builds the
        symbolic ``wp``."""
        return self._by_shape(
            "check_wp",
            self._shape("check_wp", (pre, post), cmd),
            lambda: self._check_wp(pre, cmd, post),
        )

    def _check_wp(self, pre, cmd, post) -> FootprintResult:
        try:
            wpred = cmd.wp(post)
        except Exception as exc:  # non-symbolic command/predicate
            return FootprintResult(
                False,
                f"refused: wp of {cmd.name} is not expressible ({exc})",
            )
        res = self._entails(pre, wpred)
        return res if res.ok else res.reworded(lambda: f"command {cmd.name}: ")

    def check_linear_stable(self, pred, commands) -> FootprintResult | None:
        """``stable (Σ aᵥ·v = k)`` via per-command write deltas, or
        ``None`` when ``pred`` is not (syntactically) such a linear
        equality.

        A command whose guard implies that the weighted sum of its
        assignment deltas is zero preserves the sum for *every* ``k`` —
        a check over vars(command) alone, so conservation-style
        invariants spanning *every* variable of the composition never
        force a global footprint.  It is sufficient, not necessary, so a
        failure is not decided: ``FootprintSpace.next`` falls back to
        the exact per-command ``wp``.
        """
        from repro.core.compositional import linear_terms
        from repro.core.expressions import EqE, esum

        expr = pred.as_expr() if _symbolic(pred) else None
        if not isinstance(expr, EqE):
            return None
        left = linear_terms(expr.left)
        right = linear_terms(expr.right)
        if left is None or right is None:
            return None
        coeffs = dict(left[0])
        for v, c in right[0].items():
            coeffs[v] = coeffs.get(v, 0) - c
        for cmd in commands:
            if isinstance(cmd, Skip) or cmd.is_skip():
                continue
            if len(getattr(cmd, "branches", ())) != 1:
                return FootprintResult(
                    False,
                    f"refused: command {cmd.name} is not a guarded "
                    "command (write deltas are not expressible)",
                )
            # Built once per (equality, command): the same conservation
            # law is carried through every retirement level.
            key = (id(pred), id(cmd))
            if key not in self._deltas:
                deltas = [
                    (a.expr - a.var.ref()) * coeffs[a.var]
                    for a in cmd.assignments
                    if coeffs.get(a.var, 0) != 0
                ]
                self._deltas[key] = (
                    pred,
                    cmd,
                    ExprPredicate(cmd.guard),
                    ExprPredicate(esum(deltas) == 0) if deltas else None,
                )
            _, _, guard, unchanged = self._deltas[key]
            if unchanged is None:
                continue
            res = self.entails(guard, unchanged)
            if not res.ok:
                return FootprintResult(
                    False,
                    f"command {cmd.name} does not preserve "
                    f"{pred.describe()}: {res.message}",
                )
        return FootprintResult(True)
