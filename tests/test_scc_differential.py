"""Differential tests: vectorized SCC vs. the legacy Tarjan oracle.

The vectorized condensation (trim + forward-backward + canonical Kahn
emission) must agree with :func:`repro.semantics.scc.tarjan_condensation`
on randomized masked subgraphs:

- identical SCC partitions;
- identical emission order once Tarjan's DFS-dependent order is
  re-emitted canonically (:func:`repro.semantics.scc.canonicalize`);
- both orders satisfy the sinks-first invariant that the proof
  synthesizer relies on (every inter-SCC edge goes from higher
  ``comp_id`` to lower).
"""

import numpy as np
import pytest

from repro.semantics.scc import (
    canonicalize,
    condensation,
    tarjan_condensation,
)


def random_instance(seed: int):
    """A random successor-table graph plus a random participation mask."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 41))
    ntables = int(rng.integers(1, 5))
    tables = [rng.integers(0, n, size=n, dtype=np.int64) for _ in range(ntables)]
    density = rng.uniform(0.2, 1.0)
    mask = rng.random(n) < density
    if seed % 10 == 0:  # keep full and empty masks in the mix
        mask = np.ones(n, dtype=bool) if seed % 20 == 0 else np.zeros(n, dtype=bool)
    return mask, tables


def partition(cond):
    return {frozenset(comp.tolist()) for comp in cond.components}


def assert_sinks_first(cond, mask, tables):
    """Every masked edge must go from higher comp_id to lower (or stay)."""
    idx = np.flatnonzero(mask)
    for table in tables:
        succ = table[idx]
        keep = mask[succ]
        assert (cond.comp_id[idx[keep]] >= cond.comp_id[succ[keep]]).all()


def assert_flat_layout(cond):
    """members/offsets are the flat form of components: offsets start at
    0, increase monotonically and end at len(members); every SCC's slice
    is non-empty and sorted, members_of(k) equals components[k], and
    first_members() holds each SCC's smallest member."""
    offsets = cond.offsets
    assert offsets.dtype == np.int64
    assert offsets[0] == 0 and offsets[-1] == cond.members.size
    assert (np.diff(offsets) > 0).all(), "offsets strictly increase (no empty SCC)"
    assert cond.count == len(cond.components)
    for k, comp in enumerate(cond.components):
        got = cond.members_of(k)
        assert (np.diff(got) > 0).all(), "members sorted within each SCC"
        assert np.array_equal(got, comp)
        assert got.dtype == comp.dtype == np.int64
        assert cond.first_members()[k] == comp[0]


def assert_well_formed(cond, mask):
    """comp_id and components must describe the same partition of mask."""
    assert_flat_layout(cond)
    assert (cond.comp_id[~mask] == -1).all()
    if mask.any():
        assert (cond.comp_id[mask] >= 0).all()
    seen = np.zeros(mask.shape[0], dtype=bool)
    for k, comp in enumerate(cond.components):
        assert comp.size > 0
        assert (np.diff(comp) > 0).all(), "members must be sorted"
        assert (cond.comp_id[comp] == k).all()
        assert not seen[comp].any(), "components must be disjoint"
        seen[comp] = True
    assert (seen == mask).all()


@pytest.mark.parametrize("batch", range(4))
def test_differential_random_subgraphs(batch):
    """≥100 random masked subgraphs: vectorized == canonicalized Tarjan."""
    for seed in range(batch * 30, (batch + 1) * 30):
        mask, tables = random_instance(seed)
        vec = condensation(mask, tables)
        tar = tarjan_condensation(mask, tables)

        assert partition(vec) == partition(tar), f"partition mismatch @ seed {seed}"
        assert_well_formed(vec, mask)
        assert_well_formed(tar, mask)
        assert_sinks_first(vec, mask, tables)
        assert_sinks_first(tar, mask, tables)

        # Exact emission-order agreement through the canonical order.
        canon = canonicalize(tar, mask, tables)
        assert_flat_layout(canon)
        assert np.array_equal(canon.comp_id, vec.comp_id), f"order mismatch @ seed {seed}"
        assert np.array_equal(canon.offsets, vec.offsets)
        assert np.array_equal(canon.members, vec.members)
        assert len(canon.components) == len(vec.components)
        for a, b in zip(canon.components, vec.components):
            assert np.array_equal(a, b)


def test_differential_large_mixed_graphs():
    """Bigger instances where FW-BW emits singleton partitions *and* the
    level budget trips the Tarjan fallback mid-decomposition (seed 31 and
    several others here exercise exactly that interleaving)."""
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(100, 500))
        ntables = int(rng.integers(1, 5))
        tables = [rng.integers(0, n, size=n, dtype=np.int64) for _ in range(ntables)]
        mask = rng.random(n) < rng.uniform(0.2, 1.0)
        vec = condensation(mask, tables)
        tar = tarjan_condensation(mask, tables)
        assert partition(vec) == partition(tar), f"partition mismatch @ seed {seed}"
        assert_well_formed(vec, mask)
        assert_well_formed(tar, mask)
        canon = canonicalize(tar, mask, tables)
        assert np.array_equal(canon.comp_id, vec.comp_id), f"order mismatch @ seed {seed}"
        assert np.array_equal(canon.members, vec.members)


def test_differential_dense_cyclic_graphs():
    """Permutation-heavy tables (many nontrivial SCCs, little for trim)."""
    for seed in range(40):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(3, 30))
        tables = [rng.permutation(n).astype(np.int64) for _ in range(2)]
        mask = rng.random(n) < 0.8
        vec = condensation(mask, tables)
        tar = tarjan_condensation(mask, tables)
        assert partition(vec) == partition(tar)
        canon = canonicalize(tar, mask, tables)
        assert np.array_equal(canon.comp_id, vec.comp_id)


def test_differential_chain_of_cycles_takes_tarjan_fallback():
    """A long chain of 2-cycles exhausts the BFS level budget and routes
    through the Tarjan escape hatch — result must be identical anyway."""
    k = 600
    n = 2 * k
    t1 = np.arange(n, dtype=np.int64)
    t2 = np.arange(n, dtype=np.int64)
    for i in range(k):
        a, b = 2 * i, 2 * i + 1
        t1[a], t1[b] = b, a
        t2[b] = min(b + 1, n - 1)
    mask = np.ones(n, dtype=bool)
    vec = condensation(mask, [t1, t2])
    tar = tarjan_condensation(mask, [t1, t2])
    assert vec.count == k
    assert partition(vec) == partition(tar)
    assert_sinks_first(vec, mask, [t1, t2])
    canon = canonicalize(tar, mask, [t1, t2])
    assert np.array_equal(canon.comp_id, vec.comp_id)


class TestEmissionOrderPin:
    """The sinks-first contract :mod:`repro.semantics.synthesis` builds on."""

    def test_chain_of_cycles_emits_sink_first(self):
        # 0 <-> 1 -> 2 <-> 3 -> 4 (self-loop): three SCCs in a chain.
        t1 = np.array([1, 0, 3, 2, 4], dtype=np.int64)
        t2 = np.array([1, 2, 3, 4, 4], dtype=np.int64)
        cond = condensation(np.ones(5, dtype=bool), [t1, t2])
        assert cond.count == 3
        assert cond.components[0].tolist() == [4]
        assert cond.components[1].tolist() == [2, 3]
        assert cond.components[2].tolist() == [0, 1]
        assert cond.comp_id.tolist() == [2, 2, 1, 1, 0]
        assert cond.members.tolist() == [4, 2, 3, 0, 1]
        assert cond.offsets.tolist() == [0, 1, 3, 5]

    def test_isolated_states_emit_in_index_order(self):
        # No cross edges: canonical tie-break is the smallest member state.
        table = np.arange(6, dtype=np.int64)  # identity: self-loops only
        mask = np.array([True, False, True, True, False, True])
        cond = condensation(mask, [table])
        assert [c.tolist() for c in cond.components] == [[0], [2], [3], [5]]

    def test_empty_mask_has_no_components(self):
        table = np.arange(4, dtype=np.int64)
        for cond in (
            condensation(np.zeros(4, dtype=bool), [table]),
            tarjan_condensation(np.zeros(4, dtype=bool), [table]),
        ):
            assert cond.count == 0
            assert cond.components == ()
            assert cond.offsets.tolist() == [0]
            assert cond.members.size == 0

    def test_components_are_read_only_views(self):
        t1 = np.array([1, 0, 2], dtype=np.int64)
        cond = condensation(np.ones(3, dtype=bool), [t1])
        assert cond.components is cond.components  # cached
        with pytest.raises(ValueError):
            cond.components[0][0] = 7

    def test_ladder_program_levels_are_descending(self):
        # comp_id along the ¬q ladder counts down toward the exit: the
        # synthesized variant metric decreases on every up-step.
        from repro.core.commands import GuardedCommand
        from repro.core.domains import IntRange
        from repro.core.predicates import ExprPredicate
        from repro.core.program import Program
        from repro.core.variables import Var
        from repro.semantics.transition import TransitionSystem

        depth = 9
        x = Var.shared("x", IntRange(0, depth))
        ups = [
            GuardedCommand(f"up{k}", x.ref() == k, [(x, k + 1)])
            for k in range(depth)
        ]
        prog = Program("Ladder", [x], ExprPredicate(x.ref() == 0), ups,
                       fair=[f"up{k}" for k in range(depth)])
        notq = ~ExprPredicate(x.ref() == depth).mask(prog.space)
        cond = TransitionSystem.for_program(prog).graph().condensation(notq)
        assert cond.count == depth
        assert cond.comp_id[:depth].tolist() == list(range(depth - 1, -1, -1))


# ---------------------------------------------------------------------------
# Leads-to on the cone of p ∧ ¬q vs. the whole-¬q reference
# ---------------------------------------------------------------------------


def _cone_cases():
    """``(label, program, p, q)`` for the cone differential: fuzz seeds
    0–199, the shrunk fuzz corpus, and small scenario-family instances."""
    from pathlib import Path

    from repro.dsl import parse_program
    from repro.gen.families import build_scenario
    from repro.gen.fuzz import fuzz_case, predicate_from_conjuncts
    from repro.gen.shrink import load_corpus_entry

    for seed in range(200):
        case = fuzz_case(seed)
        yield f"fuzz{seed}", case.program, case.p, case.q
    for path in sorted((Path(__file__).parent / "corpus").glob("*.json")):
        entry = load_corpus_entry(path)
        program = parse_program(entry["program"])
        yield (
            path.stem,
            program,
            predicate_from_conjuncts(program, entry["p"]),
            predicate_from_conjuncts(program, entry["q"]),
        )
    for family, params in (
        ("pipeline", {"stages": 3, "total": 2}),
        ("fanout", {"widths": (2, 2), "total": 2}),
        ("mesh", {"pools": 2, "clients": 3, "total": 1}),
        ("philosophers", {"n": 4}),
        ("product", {"stages": 2, "clients": 2, "total": 2}),
        ("hypercube", {"d": 2}),
    ):
        scenario = build_scenario(family, **params)
        for check in scenario.checks:
            if check.kind == "leadsto":
                yield (
                    f"{family}:{check.label}",
                    scenario.program,
                    check.prop.p,
                    check.prop.q,
                )


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


def _reference_levels(domain, p, q, strong):
    """Synthesis levels as selected before the cone: the whole-¬q
    condensation, filtered by the forward closure of ``p ∧ ¬q`` inside
    ``¬q`` (``None`` when the property fails)."""
    from repro.core.predicates import TRUE
    from repro.semantics.leadsto import fair_analysis

    ref = fair_analysis(domain, TRUE, q, strong=strong)
    pm = domain.pred_mask(p)
    if (pm & ref.avoid_mask).any():
        return None
    tables = [domain.succ_local(cmd) for cmd in domain.program.commands]
    region = _naive_closure(tables, pm & ref.notq_mask, ref.notq_mask)
    cond = ref.cond
    return [
        domain.to_global(cond.members_of(k)).tolist()
        for k in np.flatnonzero(region[cond.first_members()])
    ]


@pytest.mark.parametrize("strong", [False, True], ids=["weak", "strong"])
def test_cone_leadsto_matches_whole_notq_reference(strong):
    """The cone-based checkers and synthesizer give exactly the verdict,
    witness and certificate levels of the whole-``¬q`` analysis, on both
    the full space and the reachable subspace."""
    from repro.core.predicates import TRUE
    from repro.core.rules import Implication
    from repro.semantics.domain import FullSpace
    from repro.semantics.leadsto import check_leadsto, fair_analysis
    from repro.semantics.sparse import reachable_subspace
    from repro.semantics.strong_fairness import check_leadsto_strong
    from repro.semantics.synthesis import synthesize_leadsto_proof

    checker = check_leadsto_strong if strong else check_leadsto
    fairness = "strong" if strong else "weak"
    failing = 0
    for label, program, p, q in _cone_cases():
        for domain, subspace in (
            (FullSpace(program), None),
            (reachable_subspace(program), "reachable"),
        ):
            sub = domain if subspace else None
            where = (label, subspace, fairness)
            res = checker(program, p, q, subspace=sub)
            ref = fair_analysis(domain, TRUE, q, strong=strong)
            idx = np.flatnonzero(domain.pred_mask(p) & ref.avoid_mask)
            assert res.holds == (idx.size == 0), where
            if idx.size:
                failing += 1
                k = int(idx[0])
                path = [domain.state_at_local(s) for s in ref.confining_path(k)]
                assert res.witness["violations"] == idx.size, where
                assert res.witness["state"] == domain.state_at_local(k), where
                assert res.witness["confining_path"] == path, where
                assert res.witness["fair_scc_state"] == path[-1], where

            want = _reference_levels(domain, p, q, strong)
            assert (want is None) == (not res.holds), where
            if want is None:
                continue
            proof = synthesize_leadsto_proof(
                program, p, q, fairness=fairness, subspace=sub
            )
            if not want:
                assert isinstance(proof, Implication), where
                continue
            got = [level.members.tolist() for level in proof.levels]
            assert got == want, where
    # The sweep exercises failing verdicts, not only holding ones.
    assert failing > 0
