"""Differential tests: batched columnar kernel vs the per-level oracle.

The batched certificate kernel
(:func:`repro.semantics.synthesis.check_certificate_batched` over
:mod:`repro.semantics.obligations`) must be *indistinguishable in
verdict* from the per-level proof-tree walk
(:meth:`~repro.core.proofs.ProofNode.check`) on every certificate the
synthesizer can emit — on both tiers, and on corrupted certificates:

- healthy certificates: both kernels accept, with identical node and
  obligation counts (the batched kernel discharges the same obligation
  set, just one segmented pass per family instead of one call per level);
- injected faults — a corrupted level member, a broken rank gate in the
  shared exit-ladder columns — must be **refused by both** kernels;
- certificates without the synthesized columnar shape (hand-built trees,
  ``Implication`` shortcuts) fall back to the per-level oracle;
- on beyond-dense spaces the batched check runs entirely on the sparse
  tier (any full-space allocation would raise ``CapacityError``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.commands import GuardedCommand
from repro.core.domains import IntRange
from repro.core.expressions import land, lnot
from repro.core.predicates import (
    ExprPredicate,
    PrefixSupportPredicate,
    SupportPredicate,
    SupportTable,
    TRUE,
)
from repro.core.program import Program
from repro.core.rules import Ensures, MetricInduction, TransientBasis
from repro.core.variables import Var
from repro.errors import PropertyError
from repro.semantics.leadsto import check_leadsto
from repro.semantics.sparse.explorer import explore, reachable_subspace
from repro.semantics.synthesis import (
    check_certificate_batched,
    synthesize_leadsto_proof,
)

from tests.test_sparse_differential import random_program, random_predicate

X = Var.shared("x", IntRange(0, 3))


def ladder_program():
    inc = GuardedCommand("inc", X.ref() < 3, [(X, X.ref() + 1)])
    return Program(
        "Ladder", [X], ExprPredicate(X.ref() == 0), [inc], fair=["inc"]
    )


def _assert_agree(proof, program, *, subspace=None, expect_ok=None):
    """Oracle and batched kernel agree on verdict and accounting."""
    oracle = proof.check(program)
    batched = check_certificate_batched(proof, program, subspace=subspace)
    assert batched.mode == "batched"
    assert batched.ok == oracle.ok, (
        f"batched={batched.explain()}\noracle={oracle.explain()}"
    )
    assert batched.nodes_checked == oracle.nodes_checked
    assert batched.obligations_checked == oracle.obligations_checked
    if expect_ok is not None:
        assert oracle.ok == expect_ok
    return oracle, batched


def _holding_instances(max_seeds=40, want=6):
    out = []
    for seed in range(max_seeds):
        program = random_program(seed)
        rng = np.random.default_rng(90_000 + seed)
        p = random_predicate(program, rng)
        q = random_predicate(program, rng)
        from repro.semantics.leadsto import check_leadsto

        if not check_leadsto(program, p, q).holds:
            continue
        proof = synthesize_leadsto_proof(program, p, q)
        if isinstance(proof, MetricInduction):
            out.append((program, p, q, proof))
        if len(out) >= want:
            break
    assert out
    return out


HOLDING = _holding_instances()


# ---------------------------------------------------------------------------
# Healthy certificates
# ---------------------------------------------------------------------------


class TestHealthyCertificates:
    def test_dense_differential_on_random_programs(self):
        for program, _p, _q, proof in HOLDING:
            _assert_agree(proof, program, expect_ok=True)

    def test_sparse_differential_on_random_programs(self, monkeypatch):
        monkeypatch.setattr("repro.semantics.sparse.SPARSE_THRESHOLD", 0)
        for program, p, q, _dense_proof in HOLDING:
            sub = explore(program)
            if sub.size == 0:
                continue
            reach = reachable_subspace(program)
            if not check_leadsto(program, p, q, subspace=reach).holds:
                continue
            proof = synthesize_leadsto_proof(program, p, q, subspace=sub)
            if not isinstance(proof, MetricInduction):
                continue
            _assert_agree(proof, program, subspace=sub, expect_ok=True)

    def test_strong_fairness_certificate(self):
        """The E12 gap program: weak fails, strong certifies — batched
        and oracle agree on the strong certificate."""
        b = Var.boolean("gb")
        toggle = GuardedCommand("toggle", True, [(b, lnot(b.ref()))])
        inc = GuardedCommand(
            "inc", land(b.ref(), X.ref() < 3), [(X, X.ref() + 1)]
        )
        program = Program(
            "Gap", [X, b], TRUE, [toggle, inc], fair=["toggle", "inc"]
        )
        proof = synthesize_leadsto_proof(
            program, TRUE, ExprPredicate(X.ref() == 3), fairness="strong"
        )
        assert isinstance(proof, MetricInduction)
        _assert_agree(proof, program, expect_ok=True)

    def test_ladder_counts_match(self):
        program = ladder_program()
        proof = synthesize_leadsto_proof(
            program, TRUE, ExprPredicate(X.ref() == 3)
        )
        oracle, batched = _assert_agree(proof, program, expect_ok=True)
        # 3 singleton levels: 1 + 7·3 nodes, 1 + 10·3 obligations.
        assert batched.nodes_checked == 22
        assert batched.obligations_checked == 31


# ---------------------------------------------------------------------------
# Injected faults — both kernels must refuse
# ---------------------------------------------------------------------------


def _with_level(proof, n, members, description="corrupted level"):
    """Rebuild the certificate with level ``n``'s members replaced,
    keeping the columnar shape (shared exit ladder, identical q)."""
    space = proof.levels[0].space
    lv = SupportPredicate(space, members, description)
    levels = list(proof.levels)
    subs = list(proof.subs)
    levels[n] = lv
    subs[n] = Ensures(lv, proof.subs[n].q, fairness=proof.subs[n].fairness)
    return MetricInduction(proof.p, proof.q, levels, subs)


def _with_ranks(proof, ranks):
    """Rebuild the certificate with the shared exit-ladder rank column
    replaced (the 'broken rank gate' corruption)."""
    space = proof.levels[0].space
    old = proof.subs[0].q.parts[1]
    levels = list(proof.levels)
    subs = []
    for n, sub in enumerate(proof.subs):
        prefix = PrefixSupportPredicate(
            space, old.members, ranks, n, f"exit[{n}] (corrupted ranks)"
        )
        subs.append(Ensures(levels[n], proof.q | prefix, fairness=sub.fairness))
    return MetricInduction(proof.p, proof.q, levels, subs)


class TestInjectedFaults:
    def test_corrupted_level_member_refused_dense(self):
        program = ladder_program()
        proof = synthesize_leadsto_proof(
            program, TRUE, ExprPredicate(X.ref() == 3)
        )
        assert isinstance(proof, MetricInduction)
        # Drop a level's member: the dropped state is no longer covered.
        broken = _with_level(proof, 1, np.empty(0, dtype=np.int64))
        _assert_agree(broken, program, expect_ok=False)
        # Point a level at a wrong state (the q-state x=3): the original
        # member becomes uncovered and the next obligation breaks.
        wrong = proof.levels[0].members + 1
        broken2 = _with_level(proof, 0, wrong)
        _assert_agree(broken2, program, expect_ok=False)

    def test_broken_rank_gate_refused_dense(self):
        program = ladder_program()
        proof = synthesize_leadsto_proof(
            program, TRUE, ExprPredicate(X.ref() == 3)
        )
        table = proof.support_table
        assert table is not None and table.n_levels == 3
        # Lower a rank: a state claims membership of exits below its own
        # level — the rank-gate entailment must catch it.
        down = table.ranks.copy()
        hi = int(np.argmax(down))
        down[hi] -= 1
        _assert_agree(_with_ranks(proof, down), program, expect_ok=False)
        # Raise a rank: the state drops out of the exit its predecessors
        # rely on — the next obligation must catch it.
        up = table.ranks.copy()
        lo = int(np.argmin(up))
        up[lo] += 1
        _assert_agree(_with_ranks(proof, up), program, expect_ok=False)

    def test_faults_refused_on_sparse_tier(self, monkeypatch):
        monkeypatch.setattr("repro.semantics.sparse.SPARSE_THRESHOLD", 0)
        program = ladder_program()
        sub = explore(program)
        proof = synthesize_leadsto_proof(
            program, TRUE, ExprPredicate(X.ref() == 3), subspace=sub
        )
        assert isinstance(proof, MetricInduction)
        broken = _with_level(proof, 1, np.empty(0, dtype=np.int64))
        _assert_agree(broken, program, subspace=sub, expect_ok=False)
        down = proof.support_table.ranks.copy()
        down[int(np.argmax(down))] -= 1
        _assert_agree(
            _with_ranks(proof, down), program, subspace=sub, expect_ok=False
        )

    def test_corrupted_strong_certificate_refused(self):
        """Corrupting a strong certificate's level must break the
        batched position-graph SCC criterion and the oracle alike."""
        b = Var.boolean("gb")
        toggle = GuardedCommand("toggle", True, [(b, lnot(b.ref()))])
        inc = GuardedCommand(
            "inc", land(b.ref(), X.ref() < 3), [(X, X.ref() + 1)]
        )
        program = Program(
            "Gap", [X, b], TRUE, [toggle, inc], fair=["toggle", "inc"]
        )
        proof = synthesize_leadsto_proof(
            program, TRUE, ExprPredicate(X.ref() == 3), fairness="strong"
        )
        assert isinstance(proof, MetricInduction)
        broken = _with_level(proof, 0, np.empty(0, dtype=np.int64))
        _assert_agree(broken, program, expect_ok=False)


# ---------------------------------------------------------------------------
# Fallback and structure
# ---------------------------------------------------------------------------


class TestFallbackAndStructure:
    def test_hand_built_tree_falls_back_to_oracle(self):
        program = ladder_program()
        proof = synthesize_leadsto_proof(
            program, TRUE, ExprPredicate(X.ref() == 3)
        )
        bogus = MetricInduction(
            proof.p, proof.q, list(proof.levels),
            [TransientBasis(TRUE)] + list(proof.subs[1:]),
        )
        res = check_certificate_batched(bogus, program)
        assert res.mode == "per-level"
        assert res.ok == bogus.check(program).ok is False

    def test_implication_shortcut_falls_back(self):
        program = ladder_program()
        proof = synthesize_leadsto_proof(
            program, ExprPredicate(X.ref() == 3), ExprPredicate(X.ref() >= 2)
        )
        res = check_certificate_batched(proof, program)
        assert res.mode == "per-level" and res.ok

    def test_support_table_layout(self):
        program = ladder_program()
        space = program.space
        table = SupportTable(
            space, [np.array([2]), np.array([0, 3])]
        )
        assert table.n_levels == 2 and table.total == 3
        assert np.array_equal(table.level_members(0), [2])
        assert np.array_equal(table.level_members(1), [0, 3])
        # globally sorted columns carry the level ids
        assert np.array_equal(table.members, [0, 2, 3])
        assert np.array_equal(table.ranks, [1, 0, 1])
        # zero-copy views
        assert np.shares_memory(table.level_pred(1, "l1").members, table.stacked)
        pfx = table.prefix_pred(1, "e1")
        assert pfx.members is table.members and pfx.ranks is table.ranks
        with pytest.raises(PropertyError):
            SupportTable(space, [np.array([1]), np.array([1])])  # overlap

    def test_synthesized_certificates_carry_the_table(self):
        program = ladder_program()
        proof = synthesize_leadsto_proof(
            program, TRUE, ExprPredicate(X.ref() == 3)
        )
        table = proof.support_table
        assert isinstance(table, SupportTable)
        assert table.n_levels == len(proof.levels)
        for n, lv in enumerate(proof.levels):
            assert np.shares_memory(lv.members, table.stacked)
            assert np.array_equal(lv.members, table.level_members(n))


# ---------------------------------------------------------------------------
# Beyond-dense: the batched check never touches full-space arrays
# ---------------------------------------------------------------------------


class TestBeyondDense:
    def test_product_certificate_batched_at_4e12(self):
        """The pipeline∘allocator exhibit (4^21 encoded states): any
        full-space allocation would raise CapacityError, so a passing
        batched check is a zero-allocation proof."""
        from repro.systems.product import build_pipeline_allocator

        pa = build_pipeline_allocator(16)
        prop = pa.delivery()
        proof = synthesize_leadsto_proof(
            pa.system, prop.p, prop.q, fairness="strong"
        )
        assert pa.system.space.size > 4e12
        res = check_certificate_batched(proof, pa.system)
        assert res.ok and res.mode == "batched"
        assert res.nodes_checked == 1 + 7 * len(proof.levels)
