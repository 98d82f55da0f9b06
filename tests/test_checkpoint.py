"""Checkpointed resumable BFS, run budgets, and graceful degradation.

Pins the fault-tolerance contracts of ``docs/robustness.md``:

- checkpoint/resume round-trips **bit-identically** with an
  uninterrupted exploration (global ids, distances, parents, successor
  columns), both from a budget-exhausted prefix and from a complete
  snapshot, which loads without a BFS level or a write;
- a :class:`~repro.semantics.sparse.checkpoint.CheckpointPolicy` reads
  back what it writes: ``reachable_subspace(checkpoint=)`` resumes a
  valid snapshot at the policy path and treats a refused one (every
  :class:`~repro.errors.CheckpointError` reason) as absent;
- budgets degrade gracefully: exhaustion surfaces as a structured
  ``status="unknown"`` :class:`~repro.semantics.budget.PartialResult`
  from ``verify()``, the one entry point that takes a budget (and so
  from the CLI and the service, which ask through it), while the hard
  ``node_limit`` keeps its fail-closed meaning;
- ``BudgetExhausted`` is transient — never negatively cached — while
  genuine sparse-tier failures are cached as structured
  :class:`~repro.semantics.sparse.explorer.ExplorationFailure` records
  that keep the original traceback;
- every sparse→dense fallback chains the sparse failure as
  ``__cause__`` on the resulting :class:`~repro.errors.CapacityError`;
- the CLI differential: ``scenario product --deadline …`` exits 0 with
  ``status=unknown`` plus a checkpoint, and ``--resume`` completes to
  the same verdicts as an unbudgeted run.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.api import verify
from repro.cli import main
from repro.core.commands import GuardedCommand
from repro.core.domains import IntRange
from repro.core.predicates import ExprPredicate, FnPredicate
from repro.core.program import Program
from repro.core.variables import Var
from repro.errors import (
    BudgetExhausted,
    CapacityError,
    CheckpointError,
    ExplorationError,
)
from repro.semantics.budget import Budget, PartialResult
from repro.semantics.checker import check_reachable_invariant
from repro.semantics.explorer import reachable_states
from repro.semantics.leadsto import check_leadsto
from repro.semantics.sparse import (
    CheckpointPolicy,
    load_checkpoint,
    program_digest,
    resume_exploration,
)
from repro.semantics.sparse.explorer import (
    ExplorationFailure,
    explore,
    reachable_subspace,
)
from repro.semantics.strong_fairness import check_leadsto_strong
from repro.semantics.synthesis import synthesize_leadsto_proof
from repro.systems.pipeline import build_pipeline_system
from repro.util.faultinject import flip_byte, truncate_file


def fresh_program():
    return build_pipeline_system(5, total=2).system


def tera_fn_init_program():
    """10^12 encoded states with a callable ``initially``: the sparse
    tier cannot enumerate it, and the dense fallback cannot run."""
    vs = [Var.shared(f"d{k}", IntRange(0, 9)) for k in range(12)]
    d0 = vs[0]
    return Program(
        "TeraFnInit",
        vs,
        FnPredicate(lambda s: s[d0] == 0, "d0 = 0"),
        [GuardedCommand("inc", d0.ref() < 9, [(d0, d0.ref() + 1)])],
        fair=["inc"],
    )


# ---------------------------------------------------------------------------
# Budget / BudgetClock / PartialResult semantics
# ---------------------------------------------------------------------------


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError, match="deadline"):
            Budget(deadline=-1)
        with pytest.raises(ValueError, match="node_budget"):
            Budget(node_budget=0)
        with pytest.raises(ValueError, match="max_levels"):
            Budget(max_levels=0)

    def test_exhaustion_reasons(self):
        clock = Budget(deadline=0.0).start()
        assert clock.exhausted(explored=0, levels=0) == "deadline"
        clock = Budget(node_budget=10).start()
        assert clock.exhausted(explored=10, levels=0) is None  # soft: >
        assert clock.exhausted(explored=11, levels=0) == "node-budget"
        clock = Budget(max_levels=3).start()
        assert clock.exhausted(explored=0, levels=2) is None
        assert clock.exhausted(explored=0, levels=3) == "level-budget"
        clock = Budget().start()  # unbounded
        assert clock.exhausted(explored=10**9, levels=10**6) is None

    def test_budget_spec_is_reusable(self):
        """One Budget, two runs: each .start() opens a fresh window."""
        budget = Budget(max_levels=2)
        for _ in range(2):
            with pytest.raises(BudgetExhausted) as info:
                explore(fresh_program(), budget=budget)
            assert info.value.reason == "level-budget"
            assert info.value.levels == 2

    def test_exhaustion_carries_stats_and_no_path_without_policy(self):
        with pytest.raises(BudgetExhausted) as info:
            explore(fresh_program(), budget=Budget(max_levels=1))
        exc = info.value
        assert exc.levels == 1
        assert exc.explored >= 1
        assert exc.elapsed >= 0
        assert exc.checkpoint_path is None

    def test_partial_result_explain_and_refusals(self):
        pr = PartialResult(
            kind="leadsto",
            subject="p ~> q",
            reason="deadline",
            explored=42,
            levels=7,
            elapsed=1.25,
            checkpoint_path="x.ckpt",
        )
        text = pr.explain()
        assert "[UNKNOWN]" in text
        assert "x.ckpt" in text
        assert "7 BFS level(s)" in text
        with pytest.raises(TypeError, match="not a verdict"):
            bool(pr)
        assert not hasattr(pr, "holds")


# ---------------------------------------------------------------------------
# Checkpoint round trips
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_exhausted_then_resumed_equals_uninterrupted(self, tmp_path):
        reference = fresh_program()
        full = explore(reference)
        path = str(tmp_path / "budget.ckpt")
        with pytest.raises(BudgetExhausted) as info:
            explore(
                fresh_program(),
                budget=Budget(max_levels=3),
                checkpoint=CheckpointPolicy(path=path, every_levels=1),
            )
        assert info.value.checkpoint_path == path
        resumed_program = fresh_program()
        sub = resume_exploration(path, resumed_program)
        assert np.array_equal(sub.global_ids, full.global_ids)
        assert np.array_equal(sub.dist, full.dist)
        assert np.array_equal(sub.parent, full.parent)
        assert np.array_equal(sub.parent_cmd, full.parent_cmd)
        assert sub.levels == full.levels
        for name in full.mover_names:
            assert np.array_equal(sub.succ_local(name), full.succ_local(name))

    def test_uninterrupted_run_with_policy_is_unchanged(self, tmp_path):
        """Writing checkpoints must not perturb the exploration itself."""
        reference = fresh_program()
        full = explore(reference)
        path = str(tmp_path / "cadence.ckpt")
        observed = fresh_program()
        sub = explore(
            observed, checkpoint=CheckpointPolicy(path=path, every_levels=2)
        )
        assert np.array_equal(sub.global_ids, full.global_ids)
        assert np.array_equal(sub.dist, full.dist)
        loaded = load_checkpoint(path, observed)
        assert loaded["header"]["complete"] is True

    def test_resume_publishes_to_cache(self, tmp_path):
        path = str(tmp_path / "cache.ckpt")
        with pytest.raises(BudgetExhausted):
            explore(
                fresh_program(),
                budget=Budget(max_levels=2),
                checkpoint=CheckpointPolicy(path=path, every_levels=1),
            )
        program = fresh_program()
        sub = resume_exploration(path, program)
        assert reachable_subspace(program) is sub

    def test_policy_validation_and_cadence(self):
        with pytest.raises(ValueError, match="every_levels"):
            CheckpointPolicy(path="x", every_levels=0)
        policy = CheckpointPolicy(path="x", every_levels=4)
        assert not policy.due(levels_since=3)
        assert policy.due(levels_since=4)

    def test_program_digest_distinguishes_programs(self):
        a = build_pipeline_system(5, total=2).system
        b = build_pipeline_system(5, total=2).system
        c = build_pipeline_system(5, total=3).system
        assert program_digest(a) == program_digest(b)
        assert program_digest(a) != program_digest(c)

    def test_missing_file_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.ckpt"))


# ---------------------------------------------------------------------------
# Graceful degradation through checkers and synthesis
# ---------------------------------------------------------------------------


class TestGracefulDegradation:
    def test_routed_invariant_returns_partial_result(self, tmp_path, monkeypatch):
        import repro.semantics.sparse as sparse_pkg

        monkeypatch.setattr(sparse_pkg, "SPARSE_THRESHOLD", 1)
        pl = build_pipeline_system(5, total=2)
        path = str(tmp_path / "inv.ckpt")
        verdict = verify(
            pl.system,
            pl.conservation_predicate(),
            budget=Budget(max_levels=1),
            checkpoint=CheckpointPolicy(path=path, every_levels=1),
        )
        assert verdict.holds is None
        result = verdict.partial
        assert isinstance(result, PartialResult)
        assert result.status == "unknown"
        assert result.kind == "reachable-invariant"
        assert result.reason == "level-budget"
        assert result.checkpoint_path == path
        assert result.witness["tier"] == "sparse"

    def test_routed_leadsto_both_fairness_notions(self, monkeypatch):
        import repro.semantics.sparse as sparse_pkg

        monkeypatch.setattr(sparse_pkg, "SPARSE_THRESHOLD", 1)
        pl = build_pipeline_system(5, total=2)
        prop = pl.delivery()
        for fairness, kind in (("weak", "leadsto"), ("strong", "leadsto-strong")):
            verdict = verify(
                pl.system, prop, fairness=fairness, budget=Budget(max_levels=1)
            )
            assert verdict.holds is None
            result = verdict.partial
            assert isinstance(result, PartialResult)
            assert result.status == "unknown"
            assert result.kind == kind

    def test_exhaustion_is_not_cached(self):
        """A budget failure is transient: the next (unbudgeted) call on
        the same program object must explore normally."""
        program = fresh_program()
        with pytest.raises(BudgetExhausted):
            reachable_subspace(program, budget=Budget(max_levels=1))
        sub = reachable_subspace(program)
        assert sub.size > 0

    def test_hard_node_limit_stays_fail_closed(self):
        """node_limit keeps raising ExplorationError — soft budgets did
        not soften the memory wall."""
        with pytest.raises(ExplorationError, match="node_limit"):
            explore(fresh_program(), node_limit=2)

    def test_completed_cache_satisfies_any_budget(self):
        program = fresh_program()
        sub = reachable_subspace(program)
        # A cached complete subspace is returned even under a budget that
        # a fresh exploration would blow.
        again = reachable_subspace(program, budget=Budget(max_levels=1))
        assert again is sub


# ---------------------------------------------------------------------------
# Structured negative cache
# ---------------------------------------------------------------------------


class TestNegativeCache:
    def test_cached_failure_keeps_traceback_and_type(self):
        program = tera_fn_init_program()
        with pytest.raises(ExplorationError, match="expression-backed"):
            reachable_subspace(program)
        # Second call re-raises from the cache, now carrying the record.
        with pytest.raises(ExplorationError, match="cached sparse-tier") as info:
            reachable_subspace(program)
        failure = info.value.failure
        assert isinstance(failure, ExplorationFailure)
        assert failure.exc_type == "ExplorationError"
        assert "expression-backed" in failure.message
        # The original raise site survives as a formatted traceback.
        assert "initial_indices" in failure.traceback or "_conjuncts" in (
            failure.traceback
        )
        assert failure.checkpoint_path is None


# ---------------------------------------------------------------------------
# Exception chaining at every sparse→dense fallback
# ---------------------------------------------------------------------------


class TestFallbackChaining:
    @pytest.mark.parametrize(
        "call",
        [
            lambda prog: check_leadsto(
                prog,
                ExprPredicate(prog.space.vars[0].ref() == 0),
                ExprPredicate(prog.space.vars[0].ref() == 9),
            ),
            lambda prog: check_leadsto_strong(
                prog,
                ExprPredicate(prog.space.vars[0].ref() == 0),
                ExprPredicate(prog.space.vars[0].ref() == 9),
            ),
            lambda prog: check_reachable_invariant(
                prog, ExprPredicate(prog.space.vars[0].ref() <= 9)
            ),
            lambda prog: reachable_states(prog, limit=100),
            lambda prog: synthesize_leadsto_proof(
                prog,
                ExprPredicate(prog.space.vars[0].ref() == 0),
                ExprPredicate(prog.space.vars[0].ref() == 9),
            ),
        ],
        ids=[
            "check_leadsto",
            "check_leadsto_strong",
            "check_reachable_invariant",
            "reachable_states",
            "synthesize_leadsto_proof",
        ],
    )
    def test_capacity_error_chains_sparse_failure(self, call):
        program = tera_fn_init_program()
        with pytest.raises(CapacityError) as info:
            call(program)
        cause = info.value.__cause__
        assert isinstance(cause, ExplorationError)
        assert "expression-backed" in str(cause)

    def test_try_sparse_obligation_checkers_chain_too(self):
        from repro.semantics.checker import check_validity

        program = tera_fn_init_program()
        d0 = program.space.vars[0]
        with pytest.raises(CapacityError) as info:
            check_validity(
                program,
                ExprPredicate(d0.ref() == 0),
                ExprPredicate(d0.ref() <= 9),
            )
        assert isinstance(info.value.__cause__, ExplorationError)


# ---------------------------------------------------------------------------
# CLI differential: --deadline / --checkpoint / --resume
# ---------------------------------------------------------------------------


def verdict_lines(text: str) -> list[str]:
    """The decided verdict rows, as ``Verdict.explain`` prints them."""
    return [
        line
        for line in text.splitlines()
        if line.startswith(("HOLDS [", "FAILS ["))
    ]


class TestCliDifferential:
    PRODUCT = ["scenario", "product", "--stages", "8", "--clients", "2"]

    def test_deadline_unknown_then_resume_matches_unbudgeted(
        self, tmp_path, capsys
    ):
        path = str(tmp_path / "cli.ckpt")
        # 1. Budgeted run: exits 0, status=unknown, checkpoint written.
        code = main(self.PRODUCT + ["--deadline", "0", "--checkpoint", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "status=unknown" in out
        assert f"checkpoint={path}" in out
        assert "[UNKNOWN]" in out
        assert not verdict_lines(out)  # no verdict from a partial run
        # 2. Unbudgeted reference run.
        code = main(self.PRODUCT)
        reference = capsys.readouterr().out
        assert code == 0
        assert verdict_lines(reference)
        # 3. Resumed run: same verdicts and witnesses, same exit code.
        code = main(self.PRODUCT + ["--resume", path])
        resumed = capsys.readouterr().out
        assert code == 0
        assert verdict_lines(resumed) == verdict_lines(reference)
        assert "resumed" in resumed

    def test_check_asks_under_the_budget_flags(self, tmp_path, capsys, monkeypatch):
        """``check --deadline 0`` on a sparse-routed program reports an
        UNKNOWN that names the property; ``--resume`` then decides it."""
        source = tmp_path / "big.unity"
        source.write_text(
            "program Big\n"
            "declare shared a : int[0..99]; shared b : int[0..99]; "
            "shared c : int[0..199]\n"
            "initially a = 0 /\\ b = 0 /\\ c = 0\n"
            "assign\n  fair up: a < 3 -> a := a + 1\nend\n"
        )
        monkeypatch.chdir(tmp_path)
        ask = ["check", str(source), "-p", "true ~> a = 3"]
        code = main(ask + ["--deadline", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[UNKNOWN] leadsto: true ~> a = 3 — deadline exhausted" in out
        assert "status=unknown checkpoint=big.ckpt" in out
        assert not verdict_lines(out)
        code = main(ask + ["--resume", "big.ckpt"])
        out = capsys.readouterr().out
        assert code == 0
        assert verdict_lines(out)[0].startswith("HOLDS [sparse] true ~> a = 3")

    def test_resume_wrong_scenario_refused(self, tmp_path, capsys):
        path = str(tmp_path / "wrong.ckpt")
        code = main(self.PRODUCT + ["--deadline", "0", "--checkpoint", path])
        capsys.readouterr()
        assert code == 0
        # Same scenario, different parameters ⇒ different program digest.
        code = main(
            ["scenario", "product", "--stages", "9", "--clients", "2",
             "--resume", path]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "different program" in err

    def test_checkpoint_and_resume_exclude_each_other(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(self.PRODUCT + [
                "--resume", str(tmp_path / "a.ckpt"),
                "--checkpoint", str(tmp_path / "b.ckpt"),
            ])
        assert info.value.code == 2
        assert "not allowed with" in capsys.readouterr().err

    def test_exhausted_run_names_the_first_manifest_question(
        self, tmp_path, capsys, monkeypatch
    ):
        """The CLI's UNKNOWN names the question ``verify`` names, not the
        exploration behind it."""
        from repro.gen.families import build_scenario

        scenario = build_scenario("product", stages=8, clients=2)
        want = verify(
            scenario.program, scenario.checks[0].pred,
            budget=Budget(deadline=0),
        ).partial
        monkeypatch.chdir(tmp_path)
        out_path = tmp_path / "m.json"
        code = main(self.PRODUCT + [
            "--deadline", "0", "--metrics-out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert want.kind == "reachable-invariant"
        assert f"[UNKNOWN] {want.kind}: {want.subject} — " in out
        assert "[UNKNOWN] exploration" not in out
        manifest = json.loads(out_path.read_text())
        unknown = [r for r in manifest["verdicts"] if r.get("status") == "unknown"]
        assert [r["kind"] for r in unknown] == [want.kind]

    def test_run_scenario_stops_at_the_first_partial_verdict(self):
        from repro.api import Verdict
        from repro.gen.families import build_scenario, run_scenario

        scenario = build_scenario("product", stages=8, clients=2)
        rows = run_scenario(scenario, budget=Budget(deadline=0))
        assert len(rows) == 1
        check, verdict = rows[0]
        assert check is scenario.checks[0]
        assert isinstance(verdict, Verdict)
        assert verdict.holds is None and verdict.partial is not None

    def test_default_checkpoint_path_under_budget(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main(self.PRODUCT + ["--deadline", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "product.ckpt").exists()
        assert "checkpoint=product.ckpt" in out


# ---------------------------------------------------------------------------
# Digest-addressed cache directories and structured refusal reasons
# ---------------------------------------------------------------------------


class TestCacheDirectory:
    """Digest-addressed checkpoint files and structured refusal reasons.

    The certification service keeps one checkpoint per program identity
    at ``cache_path_for(dir, program)`` (``<dir>/<program_digest>.ckpt``);
    addressing by digest makes stale resumes structurally impossible (an
    edited program hashes to a path that does not exist), and every
    refusal carries a machine-readable ``reason`` so cache layers can
    tell one defect from another.
    """

    def test_wrong_program_digest_reason(self, tmp_path):
        from repro.semantics.sparse import cache_path_for

        program = fresh_program()
        other = build_pipeline_system(4, total=2).system
        explore(program, checkpoint=CheckpointPolicy(cache_path_for(tmp_path, program)))
        # Force the lookup to the wrong file: the digest check inside
        # the loader still refuses, with the structured reason.
        wrong = cache_path_for(tmp_path, program)
        with pytest.raises(CheckpointError) as exc_info:
            resume_exploration(wrong, other)
        assert exc_info.value.reason == "program-digest"

    def test_corrupt_entry_reason_is_payload_digest(self, tmp_path):
        from repro.semantics.sparse import cache_path_for
        from repro.util.faultinject import flip_byte

        program = fresh_program()
        path = cache_path_for(tmp_path, program)
        explore(program, checkpoint=CheckpointPolicy(path))
        flip_byte(path, -1)
        with pytest.raises(CheckpointError) as exc_info:
            resume_exploration(path, program)
        assert exc_info.value.reason == "payload-digest"

    def test_reason_codes_cover_the_failure_modes(self, tmp_path):
        from repro.util.faultinject import truncate_file

        program = fresh_program()
        path = str(tmp_path / "x.ckpt")
        explore(program, checkpoint=CheckpointPolicy(path))
        truncate_file(path, 12)
        with pytest.raises(CheckpointError) as exc_info:
            load_checkpoint(path)
        assert exc_info.value.reason == "truncated"
        with open(path, "wb") as f:
            f.write(b"NOTACKPT!!\n" * 3)
        with pytest.raises(CheckpointError) as exc_info:
            load_checkpoint(path)
        assert exc_info.value.reason == "bad-magic"
        with pytest.raises(CheckpointError) as exc_info:
            load_checkpoint(str(tmp_path / "absent.ckpt"))
        assert exc_info.value.reason == "io"


# ---------------------------------------------------------------------------
# One snapshot path: the checkpoint policy reads back what it writes
# ---------------------------------------------------------------------------


def rewrite_checkpoint(path, edit=None, extra=()):
    """Re-emit the checkpoint at ``path`` with its JSON header passed
    through ``edit`` and the ``(name, array)`` pairs of ``extra``
    appended to the payload, each with its own digest entry."""
    from repro.semantics.sparse.checkpoint import MAGIC, _array_entry

    with open(path, "rb") as f:
        raw = f.read()
    start = len(MAGIC) + 8
    hlen = int.from_bytes(raw[len(MAGIC):start], "little")
    header = json.loads(raw[start:start + hlen])
    payload = raw[start + hlen:]
    for name, arr in extra:
        header["arrays"].append(_array_entry(name, arr))
        payload += np.ascontiguousarray(arr).tobytes()
    if edit is not None:
        edit(header)
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + len(blob).to_bytes(8, "little") + blob + payload)


def assert_same_subspace(sub, full):
    for name in ("global_ids", "dist", "parent", "parent_cmd", "init_local"):
        assert np.array_equal(getattr(sub, name), getattr(full, name)), name
    assert sub.mover_names == full.mover_names
    assert sub.levels == full.levels


def partial_snapshot(path, levels=3):
    with pytest.raises(BudgetExhausted):
        explore(
            fresh_program(),
            budget=Budget(max_levels=levels),
            checkpoint=CheckpointPolicy(path=path, every_levels=1),
        )


def _set(key, value):
    return lambda header: header.__setitem__(key, value)


def _append_byte(path):
    with open(path, "ab") as f:
        f.write(b"x")


#: One way to leave a file at the policy path per refusal reason.
DAMAGE = {
    "bad-magic": lambda path: flip_byte(path, 0),
    "truncated": lambda path: truncate_file(path, os.path.getsize(path) - 16),
    "corrupt-header": lambda path: flip_byte(path, len(b"RPROCKPT1\n") + 8),
    "payload-digest": lambda path: flip_byte(path, -1),
    "trailing-bytes": lambda path: _append_byte(path),
    "inconsistent": lambda path: rewrite_checkpoint(path, _set("levels", 99)),
    "program-digest": lambda path: explore(
        build_pipeline_system(4, total=2).system,
        checkpoint=CheckpointPolicy(path),
    ),
    "command-set": lambda path: rewrite_checkpoint(
        path, _set("mover_names", ["ghost"])
    ),
    "io": os.unlink,
}


class TestSnapshotPolicy:
    def test_complete_snapshot_loads_without_bfs_or_write(
        self, tmp_path, monkeypatch
    ):
        """Through ``reachable_subspace(checkpoint=)`` and
        ``resume_exploration`` alike: no BFS level, no write, decided
        under a zero deadline, bit-identical to ``explore()``."""
        import repro.semantics.sparse.checkpoint as ckpt_mod
        import repro.semantics.sparse.explorer as explorer_mod

        reference = fresh_program()
        full = explore(reference)
        path = str(tmp_path / "complete.ckpt")
        explore(fresh_program(), checkpoint=CheckpointPolicy(path))
        with open(path, "rb") as f:
            before = f.read()
        writes = []
        monkeypatch.setattr(
            ckpt_mod, "write_checkpoint", lambda *a, **k: writes.append(a)
        )
        monkeypatch.setattr(explorer_mod, "_bfs_loop", None)  # never called
        zero = Budget(deadline=0)
        for load in (
            lambda p: reachable_subspace(
                p, budget=zero, checkpoint=CheckpointPolicy(path)
            ),
            lambda p: resume_exploration(path, p, budget=zero),
        ):
            program = fresh_program()
            sub = load(program)
            assert_same_subspace(sub, full)
            assert reachable_subspace(program) is sub
        assert writes == []
        with open(path, "rb") as f:
            assert f.read() == before

    def test_partial_snapshot_at_policy_path_is_resumed(self, tmp_path):
        reference = fresh_program()
        full = explore(reference)
        path = str(tmp_path / "partial.ckpt")
        partial_snapshot(path, levels=3)
        program = fresh_program()
        sub = reachable_subspace(program, checkpoint=CheckpointPolicy(path))
        assert_same_subspace(sub, full)
        assert sub.stats["resumed_levels"] == 3
        assert load_checkpoint(path, program)["header"]["complete"] is True

    def test_unclosed_complete_snapshot_is_refused_as_inconsistent(
        self, tmp_path
    ):
        reference = fresh_program()
        full = explore(reference)
        path = str(tmp_path / "unclosed.ckpt")
        partial_snapshot(path, levels=3)
        rewrite_checkpoint(path, _set("complete", True))
        with pytest.raises(CheckpointError) as info:
            resume_exploration(path, fresh_program())
        assert info.value.reason == "inconsistent"
        # At a policy path it is never served: a fresh exploration
        # replaces it with the closed snapshot.
        program = fresh_program()
        sub = reachable_subspace(program, checkpoint=CheckpointPolicy(path))
        assert_same_subspace(sub, full)
        header = load_checkpoint(path, program)["header"]
        assert header["complete"] is True and header["levels"] == full.levels

    @pytest.mark.parametrize("reason", sorted(DAMAGE))
    def test_refused_file_at_policy_path_is_replaced(self, tmp_path, reason):
        reference = fresh_program()
        full = explore(reference)
        path = str(tmp_path / "damaged.ckpt")
        explore(fresh_program(), checkpoint=CheckpointPolicy(path))
        DAMAGE[reason](path)
        program = fresh_program()
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path, program)
        assert info.value.reason == reason
        sub = reachable_subspace(program, checkpoint=CheckpointPolicy(path))
        assert_same_subspace(sub, full)
        assert load_checkpoint(path, program)["header"]["complete"] is True

    def test_legacy_successor_columns_load_and_are_ignored(self, tmp_path):
        reference = fresh_program()
        full = explore(reference)
        path = str(tmp_path / "legacy.ckpt")
        explore(fresh_program(), checkpoint=CheckpointPolicy(path))
        rewrite_checkpoint(
            path,
            extra=[(f"succ:{name}", full.succ_local(name)) for name in full.mover_names],
        )
        program = fresh_program()
        assert any(k.startswith("succ:") for k in load_checkpoint(path, program)["arrays"])
        sub = resume_exploration(path, program)
        assert_same_subspace(sub, full)
        for name in full.mover_names:
            assert np.array_equal(sub.succ_local(name), full.succ_local(name))
