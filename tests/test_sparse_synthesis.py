"""Differential tests for sparse-tier proof synthesis and witness paths.

Pins the certification story of the sparse engine:

- certificates synthesized on a :class:`ReachableSubspace` have exactly
  the level structure of dense synthesis wherever both tiers run (the
  canonical sinks-first SCC emission order is tier-independent);
- sparse certificates kernel-check on *both* tiers — densely on small
  spaces, and through the reachable-restricted obligation checkers when
  the sparse tier is forced;
- failing checks carry witness paths: a BFS-parent command path from the
  initial set to the violating state, and a ``¬q``-confined walk into a
  fair SCC (every state on it satisfies the confinement predicate);
- the variant metric really is a variant: along every command step the
  certificate level never increases, and each level has a fair command
  decreasing it strictly;
- synthesis correctly *refuses* on properties that fail (the negative
  case), on both tiers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.predicates import (
    ExprPredicate,
    PrefixSupportPredicate,
    SupportPredicate,
    TRUE,
)
from repro.core.rules import Implication, MetricInduction, StrongTransientBasis
from repro.errors import ProofError, PropertyError
from repro.semantics.explorer import reachable_mask
from repro.semantics.leadsto import check_leadsto
from repro.semantics.sparse.explorer import explore, reachable_subspace
from repro.semantics.synthesis import synthesize_leadsto_proof
from repro.semantics.transition import TransitionSystem

from tests.test_sparse_differential import random_program, random_predicate


def _holding_and_failing(max_seeds=60, want=6):
    """Random (program, p, q) instances split by the **sparse** (reachable-
    restricted) weak-fairness verdict — the judgment sparse certificates
    conclude.  A sparse failure implies a dense failure (the violating
    p-state is reachable), so the FAILING set refuses on both tiers."""
    holding, failing = [], []
    for seed in range(max_seeds):
        program = random_program(seed)
        rng = np.random.default_rng(50_000 + seed)
        p = random_predicate(program, rng)
        q = random_predicate(program, rng)
        sub = explore(program)
        if sub.size == 0:
            continue
        if check_leadsto(program, p, q, subspace=reachable_subspace(program)).holds:
            if len(holding) < want:
                holding.append((program, p, q, sub))
        elif len(failing) < want:
            failing.append((program, p, q, sub))
        if len(holding) >= want and len(failing) >= want:
            break
    assert holding and failing
    return holding, failing


HOLDING, FAILING = _holding_and_failing()


def _naive_closure(tables, seeds, allowed):
    """States reachable from ``seeds`` through ``allowed`` states: a plain
    fixpoint over the successor tables, independent of the engine's
    frontier walks."""
    visited = seeds.copy()
    while True:
        grown = visited.copy()
        for table in tables:
            succ = table[visited]
            grown[succ[allowed[succ]]] = True
        if np.array_equal(grown, visited):
            return visited
        visited = grown


# ---------------------------------------------------------------------------
# Certificate differential: sparse vs dense synthesis
# ---------------------------------------------------------------------------


class TestCertificateDifferential:
    def test_level_structure_matches_dense_oracle(self):
        """Sparse certificate levels equal the dense-primitive oracle: the
        canonical condensation of ``reach ∧ ¬q`` (full tables, full
        masks), filtered to the forward closure of the reachable
        ``p ∧ ¬q`` seeds — component for component, in emission order."""
        compared = 0
        for program, p, q, sub in HOLDING:
            space = program.space
            sparse = synthesize_leadsto_proof(program, p, q, subspace=sub)
            ts = TransitionSystem.for_program(program)
            reach = reachable_mask(program)
            notq_r = reach & ~q.mask(space)
            seeds = p.mask(space) & notq_r
            region = _naive_closure(list(ts.tables.values()), seeds, notq_r)
            cond = ts.graph().condensation(notq_r)
            expected = [
                members
                for members in cond.components
                if region[members[0]]
            ]
            if not expected:
                assert isinstance(sparse, Implication)
                continue
            assert isinstance(sparse, MetricInduction)
            assert len(sparse.levels) == len(expected)
            lower = q.mask(space).copy()
            for sl, members, sub_proof in zip(
                sparse.levels, expected, sparse.subs
            ):
                assert isinstance(sl, SupportPredicate)
                assert np.array_equal(sl.members, members)
                # exit predicate ≡ q ∨ (union of lower levels)
                assert np.array_equal(sub_proof.rhs().mask(space), lower)
                lower = lower.copy()
                lower[members] = True
            compared += 1
        assert compared  # at least one non-trivial certificate compared

    def test_sparse_certificates_check_on_sparse_tier(self, monkeypatch):
        """Forcing every obligation through the reachable-restricted
        checkers, the certificate re-checks end to end (and the verdict
        agrees with the sparse model checker)."""
        monkeypatch.setattr("repro.semantics.sparse.SPARSE_THRESHOLD", 0)
        for program, p, q, sub in HOLDING:
            proof = synthesize_leadsto_proof(program, p, q, subspace=sub)
            res = proof.check(program)
            assert res.ok, res.explain()
            assert proof.verify_semantically(program)

    def test_refusal_on_both_tiers(self):
        """The negative case: synthesis must refuse failing properties
        (a sparse failure is a reachable counterexample, so the dense
        synthesizer refuses too)."""
        for program, p, q, sub in FAILING:
            with pytest.raises(ProofError):
                synthesize_leadsto_proof(program, p, q)
            with pytest.raises(ProofError):
                synthesize_leadsto_proof(program, p, q, subspace=sub)


# ---------------------------------------------------------------------------
# Witness paths
# ---------------------------------------------------------------------------


def _succ_state(program, state, cmd_name):
    space = program.space
    cmd = program.command_named(cmd_name)
    i = np.array([space.index_of(state)], dtype=np.int64)
    return space.state_at(int(cmd.succ_of(space, i)[0]))


class TestWitnessPaths:
    def test_confining_path_is_confined_and_stepwise(self, monkeypatch):
        """Every state on the confining path satisfies the confinement
        predicate ``¬q``, and consecutive states are one command apart."""
        monkeypatch.setattr("repro.semantics.sparse.SPARSE_THRESHOLD", 0)
        checked = 0
        for program, p, q, _sub in FAILING:
            res = check_leadsto(program, p, q)
            assert not res.holds
            assert res.witness["tier"] == "sparse"
            path = res.witness["confining_path"]
            assert path and path[0] == res.witness["state"]
            for state in path:
                assert not q.holds(state)  # confinement predicate ¬q
            ts = TransitionSystem.for_program(program)
            space = program.space
            for a, b in zip(path, path[1:]):
                ia = space.index_of(a)
                succs = {int(t[ia]) for _, t in ts.all_tables()}
                assert space.index_of(b) in succs
                checked += 1
        assert checked

    def test_reach_path_replays_through_commands(self, monkeypatch):
        """witness["path"] starts at an initial state and replays to the
        violating state through the named commands (BFS parents)."""
        monkeypatch.setattr("repro.semantics.sparse.SPARSE_THRESHOLD", 0)
        for program, p, q, _sub in FAILING:
            res = check_leadsto(program, p, q)
            path = res.witness["path"]
            cmds = res.witness["path_commands"]
            assert len(cmds) == len(path) - 1
            assert program.is_initial(path[0])
            state = path[0]
            for cmd_name, expect in zip(cmds, path[1:]):
                state = _succ_state(program, state, cmd_name)
                assert state == expect
            assert state == res.witness["state"]

    def test_dense_confining_path_matches_judgment(self):
        for program, p, q, _sub in FAILING:
            res = check_leadsto(program, p, q)
            # below the threshold the dense tier decides; its witness only
            # carries the confining path when the verdict is dense-failing
            if res.holds or "confining_path" not in res.witness:
                continue
            for state in res.witness["confining_path"]:
                assert not q.holds(state)


# ---------------------------------------------------------------------------
# Variant metric
# ---------------------------------------------------------------------------


class TestVariantMetric:
    def _rank_of(self, proof, space):
        """state index → certificate level rank (-1 outside all levels)."""
        rank = {}
        for n, level in enumerate(proof.levels):
            for g in level.members:
                rank[int(g)] = n
        return rank

    def test_variant_never_increases_and_strictly_decreases(self):
        """Along every command step out of a level, the level rank never
        increases; and every level has a fair command that decreases it
        strictly (or exits to q) from every member — the induction."""
        exercised = 0
        for program, p, q, sub in HOLDING:
            proof = synthesize_leadsto_proof(program, p, q, subspace=sub)
            if not isinstance(proof, MetricInduction):
                continue
            space = program.space
            rank = self._rank_of(proof, space)
            qm = q.mask(space)
            ts = TransitionSystem.for_program(program)
            for n, level in enumerate(proof.levels):
                for g in level.members.tolist():
                    for _, table in ts.all_tables():
                        t = int(table[g])
                        assert qm[t] or rank.get(t, -1) <= n
                strict = False
                for _cmd, table in ts.fair_tables():
                    succ = table[level.members]
                    if all(
                        qm[int(t)] or rank.get(int(t), -1) < n
                        for t in succ.tolist()
                    ):
                        strict = True
                        break
                assert strict, f"level {n} has no strictly helpful command"
                exercised += 1
        assert exercised


# ---------------------------------------------------------------------------
# Strong-fairness certificates
# ---------------------------------------------------------------------------


def _gap_program():
    """Weak fairness fails, strong holds (the E12 toggle/inc gap)."""
    from repro.core.commands import GuardedCommand
    from repro.core.domains import IntRange
    from repro.core.expressions import land, lnot
    from repro.core.program import Program
    from repro.core.variables import Var

    x = Var.shared("x", IntRange(0, 3))
    b = Var.boolean("b")
    toggle = GuardedCommand("toggle", True, [(b, lnot(b.ref()))])
    inc = GuardedCommand("inc", land(b.ref(), x.ref() < 3), [(x, x.ref() + 1)])
    return (
        Program("Gap", [x, b], TRUE, [toggle, inc], fair=["toggle", "inc"]),
        ExprPredicate(x.ref() == 3),
    )


class TestStrongFairnessCertificates:
    def test_gap_program_strong_certificate(self):
        program, goal = _gap_program()
        with pytest.raises(ProofError):
            synthesize_leadsto_proof(program, TRUE, goal)
        proof = synthesize_leadsto_proof(program, TRUE, goal, fairness="strong")
        res = proof.check(program)
        assert res.ok, res.explain()
        assert proof.verify_semantically(program, fairness="strong")
        assert "transient-strong" in proof.rule_histogram() or any(
            isinstance(s, StrongTransientBasis) for s in proof.premises()
        )

    def test_product_strong_certificate_sparse(self, monkeypatch):
        """The pipeline∘allocator exhibit, certified end to end on the
        sparse tier (weak refusal + strong kernel-OK certificate)."""
        from repro.systems.product import build_pipeline_allocator

        pa = build_pipeline_allocator(4, clients=2, total=2)
        prop = pa.delivery()
        sub = explore(pa.system)
        with pytest.raises(ProofError):
            synthesize_leadsto_proof(pa.system, prop.p, prop.q, subspace=sub)
        proof = synthesize_leadsto_proof(
            pa.system, prop.p, prop.q, fairness="strong", subspace=sub
        )
        monkeypatch.setattr("repro.semantics.sparse.SPARSE_THRESHOLD", 0)
        res = proof.check(pa.system)
        assert res.ok, res.explain()
        assert proof.verify_semantically(pa.system, fairness="strong")

    def test_transient_strong_agrees_with_gap(self):
        from repro.semantics.checker import check_transient
        from repro.semantics.strong_fairness import check_transient_strong

        program, _goal = _gap_program()
        p = ExprPredicate(program.var_named("x").ref() < 3)
        assert not check_transient(program, p).holds
        assert check_transient_strong(program, p).holds


# ---------------------------------------------------------------------------
# Support predicates
# ---------------------------------------------------------------------------


class TestSupportPredicates:
    def test_support_predicate_semantics(self):
        program = random_program(3)
        space = program.space
        members = np.unique(
            np.random.default_rng(0).integers(0, space.size, 5)
        ).astype(np.int64)
        pred = SupportPredicate(space, members, "support")
        mask = pred.mask(space)
        assert np.array_equal(np.flatnonzero(mask), members)
        idx = np.arange(space.size, dtype=np.int64)
        assert np.array_equal(pred.mask_at(space, idx), mask)
        assert pred.count(space) == members.size
        for i in range(space.size):
            assert pred.holds(space.state_at(i)) == bool(mask[i])

    def test_prefix_support_predicate_gates_by_rank(self):
        program = random_program(3)
        space = program.space
        members = np.arange(0, min(10, space.size), dtype=np.int64)
        ranks = np.arange(members.size, dtype=np.int64)[::-1].copy()
        idx = np.arange(space.size, dtype=np.int64)
        for cutoff in (0, 3, members.size):
            pred = PrefixSupportPredicate(space, members, ranks, cutoff, "pfx")
            expect = np.zeros(space.size, dtype=bool)
            expect[members[ranks < cutoff]] = True
            assert np.array_equal(pred.mask(space), expect)
            assert np.array_equal(pred.mask_at(space, idx), expect)
            assert pred.count(space) == int((ranks < cutoff).sum())

    def test_support_predicate_validation(self):
        program = random_program(3)
        space = program.space
        with pytest.raises(PropertyError):
            SupportPredicate(space, np.array([2, 1]), "unsorted")
        with pytest.raises(PropertyError):
            SupportPredicate(space, np.array([-1]), "negative")
        with pytest.raises(PropertyError):
            PrefixSupportPredicate(
                space, np.array([0, 1]), np.array([0]), 1, "shape"
            )
