"""Differential tests: sparse tier vs. the dense engine.

On spaces where both tiers can run, the sparse engine must agree with the
dense one on everything observable:

- initial-state sets (join enumeration vs. ``initial_mask``);
- reachable sets and BFS distances;
- SCC partitions **and** canonical emission order of the ``¬q`` subgraph
  restricted to reachable states (local ids preserve global order, so the
  condensations must match index for index);
- ``check_leadsto`` / ``check_leadsto_strong`` verdicts against the dense
  analysis restricted to reachable ``p``-states (the sparse tier's
  documented judgment);
- ``check_reachable_invariant`` verdicts and violation counts (identical
  judgment on both tiers);
- the leaf checkers (validity, ``init``, ``next``, ``stable``,
  ``transient``) on the reachable domain against dense masks restricted
  to reachable states.

Programs are generated randomly but *domain-safe*: every assignment is
guarded to stay inside its variable's range, so both tiers exercise
semantics rather than error paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.commands import AltCommand, GuardedCommand
from repro.core.domains import BoolDomain, IntRange
from repro.core.expressions import land, lnot
from repro.core.predicates import ExprPredicate
from repro.core.program import Program
from repro.core.variables import Var
import repro.semantics.sparse as sparse_pkg
from repro.semantics.checker import (
    check_init,
    check_next,
    check_reachable_invariant,
    check_stable,
    check_transient,
    check_validity,
)
from repro.semantics.domain import FullSpace
from repro.semantics.explorer import distance_map, reachable_mask
from repro.semantics.leadsto import check_leadsto, fair_analysis
from repro.semantics.sparse.explorer import (
    explore,
    initial_indices,
    reachable_subspace,
)
from repro.semantics.strong_fairness import check_leadsto_strong
from repro.semantics.transition import TransitionSystem


def random_program(seed: int) -> Program:
    """A random domain-safe program over 2–4 small variables."""
    rng = np.random.default_rng(seed)
    nvars = int(rng.integers(2, 5))
    variables: list[Var] = []
    for k in range(nvars):
        if rng.random() < 0.3:
            variables.append(Var.shared(f"b{k}", BoolDomain()))
        else:
            hi = int(rng.integers(1, 5))
            variables.append(Var.shared(f"x{k}", IntRange(0, hi)))

    def random_guard():
        v = variables[int(rng.integers(nvars))]
        if isinstance(v.domain, BoolDomain):
            return v.ref() if rng.random() < 0.5 else lnot(v.ref())
        pivot = int(rng.integers(v.domain.lo, v.domain.hi + 1))
        return v.ref() <= pivot if rng.random() < 0.5 else v.ref() > pivot

    def random_command(name: str):
        # Guarded wrap/step updates that provably stay in range.
        v = variables[int(rng.integers(nvars))]
        if isinstance(v.domain, BoolDomain):
            body = [(v, lnot(v.ref()))]
            guard = random_guard()
            return GuardedCommand(name, guard, body)
        if rng.random() < 0.5:
            # guarded increment
            return GuardedCommand(
                name,
                land(v.ref() < v.domain.hi, random_guard()),
                [(v, v.ref() + 1)],
            )
        # reset-to-lo / decrement alternative
        return AltCommand(
            name,
            [
                (v.ref() > v.domain.lo, [(v, v.ref() - 1)]),
                (random_guard(), [(v, v.domain.lo)]),
            ],
        )

    ncmds = int(rng.integers(2, 6))
    commands = [random_command(f"cmd{k}") for k in range(ncmds)]
    # Structurally identical commands merge inside Program (union
    # semantics), which would orphan fair names — dedup first.
    by_body = {}
    for c in commands:
        by_body.setdefault(c.body_key(), c)
    commands = list(by_body.values())
    fair = [c.name for c in commands if rng.random() < 0.7]

    # Random init: bind some variables to a value, leave the rest free.
    init_parts = []
    for v in variables:
        if rng.random() < 0.6:
            if isinstance(v.domain, BoolDomain):
                init_parts.append(v.ref() if rng.random() < 0.5 else lnot(v.ref()))
            else:
                init_parts.append(
                    v.ref() == int(rng.integers(v.domain.lo, v.domain.hi + 1))
                )
    init = ExprPredicate(land(*init_parts))
    return Program(f"Rand[{seed}]", variables, init, commands, fair=fair)


def random_predicate(program: Program, rng) -> ExprPredicate:
    parts = []
    for v in program.variables:
        if rng.random() < 0.5:
            continue
        if isinstance(v.domain, BoolDomain):
            parts.append(v.ref() if rng.random() < 0.5 else lnot(v.ref()))
        else:
            pivot = int(rng.integers(v.domain.lo, v.domain.hi + 1))
            parts.append(v.ref() <= pivot)
    if not parts:
        v = program.variables[0]
        if isinstance(v.domain, BoolDomain):
            parts = [v.ref()]
        else:
            parts = [v.ref() == v.domain.lo]
    return ExprPredicate(land(*parts))


@pytest.mark.parametrize("batch", range(4))
def test_reachability_and_distances_agree(batch):
    for seed in range(batch * 25, (batch + 1) * 25):
        program = random_program(seed)
        sub = explore(program)
        dense_init = np.flatnonzero(program.initial_mask())
        assert np.array_equal(initial_indices(program), dense_init), seed
        dense_reach = np.flatnonzero(reachable_mask(program))
        assert np.array_equal(sub.global_ids, dense_reach), seed
        dm = distance_map(program)
        assert np.array_equal(sub.dist, dm[sub.global_ids]), seed
        # Local successor columns must gather the dense tables exactly.
        ts = TransitionSystem.for_program(program)
        for cmd, table in ts.all_tables():
            expect = np.searchsorted(sub.global_ids, table[sub.global_ids])
            assert np.array_equal(sub.succ_local(cmd), expect), (seed, cmd.name)
            assert np.array_equal(
                sub.enabled_local(cmd),
                cmd.enabled_mask(program.space)[sub.global_ids],
            ), (seed, cmd.name)


@pytest.mark.parametrize("batch", range(4))
def test_scc_partition_and_order_agree(batch):
    """The local ``¬q`` condensation must equal the dense condensation of
    ``reachable ∧ ¬q`` (the reachable set is successor-closed, so the
    induced subgraphs coincide), including the canonical emission order."""
    for seed in range(batch * 25, (batch + 1) * 25):
        program = random_program(seed)
        rng = np.random.default_rng(10_000 + seed)
        q = random_predicate(program, rng)
        sub = explore(program)
        if sub.size == 0:
            continue
        local_cond = sub.graph().condensation(~sub.pred_mask(q))
        reach = reachable_mask(program)
        dense_cond = (
            TransitionSystem.for_program(program)
            .graph()
            .condensation(reach & ~q.mask(program.space))
        )
        assert local_cond.count == dense_cond.count, seed
        for lc, dc in zip(local_cond.components, dense_cond.components):
            assert np.array_equal(sub.global_ids[lc], dc), seed


@pytest.mark.parametrize("batch", range(4))
def test_leadsto_verdicts_agree(batch):
    """Sparse leads-to == dense analysis restricted to reachable p-states,
    for both fairness notions."""
    for seed in range(batch * 25, (batch + 1) * 25):
        program = random_program(seed)
        rng = np.random.default_rng(20_000 + seed)
        p = random_predicate(program, rng)
        q = random_predicate(program, rng)
        reach = reachable_mask(program)
        pm = p.mask(program.space)

        sub = reachable_subspace(program)

        weak = fair_analysis(FullSpace(program), q)
        expect_weak = not (pm & weak.avoid_mask & reach).any()
        got_weak = check_leadsto(program, p, q, subspace=sub)
        assert got_weak.holds == expect_weak, seed
        assert got_weak.witness.get("tier") == "sparse"

        strong = fair_analysis(FullSpace(program), q, strong=True)
        expect_strong = not (pm & strong.avoid_mask & reach).any()
        got_strong = check_leadsto_strong(program, p, q, subspace=sub)
        assert got_strong.holds == expect_strong, seed


@pytest.mark.parametrize("batch", range(2))
def test_reachable_invariant_agrees(batch):
    """Identical judgment on both tiers: verdict and violation count."""
    for seed in range(batch * 25, (batch + 1) * 25):
        program = random_program(seed)
        rng = np.random.default_rng(30_000 + seed)
        p = random_predicate(program, rng)
        dense = check_reachable_invariant(program, p)
        sparse = check_reachable_invariant(
            program, p, subspace=reachable_subspace(program)
        )
        assert dense.holds == sparse.holds, seed
        if not dense.holds:
            assert dense.witness["violations"] == sparse.witness["violations"]
            assert dense.witness["state"] == sparse.witness["state"]


def _expect_first(ids: np.ndarray, bad: np.ndarray, space):
    """(violation count, first violating state) over the ids with ``bad``."""
    hits = ids[bad]
    return int(hits.size), (space.state_at(int(hits[0])) if hits.size else None)


@pytest.mark.parametrize("batch", range(2))
def test_leaf_judgments_on_reachable_domain(batch, monkeypatch):
    """With the threshold forced to 0 the public leaf checkers decide over
    the reachable subspace: each must match an expectation computed here
    from dense masks restricted to ``reachable_mask(program)`` — verdict,
    violation count, first violating state, and the offending (or
    helpful) command."""
    monkeypatch.setattr(sparse_pkg, "SPARSE_THRESHOLD", 0)
    for seed in range(batch * 25, (batch + 1) * 25):
        program = random_program(seed)
        space = program.space
        rng = np.random.default_rng(40_000 + seed)
        p = random_predicate(program, rng)
        q = random_predicate(program, rng)
        ids = np.flatnonzero(reachable_mask(program))
        pm, qm = p.mask(space)[ids], q.mask(space)[ids]
        tables = TransitionSystem.for_program(program).tables

        res = check_validity(program, p, q)
        count, state = _expect_first(ids, pm & ~qm, space)
        assert res.witness["tier"] == "sparse", seed
        assert res.holds == (count == 0), seed
        if count:
            assert (res.witness["violations"], res.witness["state"]) == (
                count,
                state,
            ), seed

        init = np.flatnonzero(program.initial_mask())
        res = check_init(program, p)
        count, state = _expect_first(init, ~p.mask(space)[init], space)
        assert res.holds == (count == 0), seed
        if count:
            assert (res.witness["violations"], res.witness["state"]) == (
                count,
                state,
            ), seed

        for checker, args, rhs in (
            (check_next, (p, q), q),
            (check_stable, (p,), p),
        ):
            expect = None
            for cmd in program.commands:
                succ = tables[cmd.name][ids]
                bad = pm & ~rhs.mask(space)[succ]
                if bad.any():
                    count, state = _expect_first(ids, bad, space)
                    k = int(np.flatnonzero(bad)[0])
                    expect = (cmd.name, count, state, space.state_at(int(succ[k])))
                    break
            res = checker(program, *args)
            assert res.holds == (expect is None), (seed, checker.__name__)
            if expect is not None:
                w = res.witness
                got = (w["command"], w["violations"], w["state"], w["successor"])
                assert got == expect, (seed, checker.__name__)

        res = check_transient(program, p)
        helpful, stuck = None, {}
        for cmd in program.fair_commands:
            bad = pm & pm[np.searchsorted(ids, tables[cmd.name][ids])]
            if not bad.any():
                helpful = cmd.name
                break
            stuck[cmd.name] = _expect_first(ids, bad, space)[1]
        if not program.fair_commands:
            assert res.holds == (not pm.any()), seed
        elif helpful is not None:
            assert res.holds and res.witness["command"] == helpful, seed
        else:
            assert not res.holds and res.witness["stuck_states"] == stuck, seed
