"""Fault injection: prove the fault-tolerance layer fails closed.

Three claims are pinned here, by breaking the engine on purpose through
:mod:`repro.util.faultinject`:

1. **Checkpoints are refused, never trusted, when damaged** — a flipped
   byte anywhere (header or payload), a truncation, a wrong magic, or a
   checkpoint written for a *different* program all raise
   :class:`~repro.errors.CheckpointError` before a single array is used.
2. **Writes are atomic** — a crash injected at any stage of the
   checkpoint write (just after open, mid-payload, just before the
   rename) leaves either no checkpoint or the previous *valid* one;
   never a torn file, and no stray temp files.
3. **No partial subspace ever yields a verdict** — budget exhaustion
   makes ``verify()`` return an undecided verdict whose
   :class:`~repro.semantics.budget.PartialResult` refuses to be a
   boolean, an injected ``MemoryError`` propagates out of the
   routed checkers instead of being converted into HOLDS/FAILS, and a
   ``KeyboardInterrupt`` at a BFS-level boundary leaves a checkpoint
   whose resume is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.api import verify
from repro.errors import CheckpointError, ExplorationError
from repro.semantics.budget import Budget, PartialResult
from repro.semantics.sparse import (
    CheckpointPolicy,
    load_checkpoint,
    resume_exploration,
)
from repro.semantics.checker import check_reachable_invariant
from repro.semantics.sparse.explorer import explore
from repro.systems.pipeline import build_pipeline_system
from repro.util.faultinject import (
    InjectedFault,
    active_sites,
    fault_point,
    flip_byte,
    inject,
    truncate_file,
)


@pytest.fixture
def pipeline():
    """A small pipeline system (fresh object per test: no cache sharing)."""
    return build_pipeline_system(4, total=2)


def fresh_program():
    return build_pipeline_system(4, total=2).system


# ---------------------------------------------------------------------------
# The harness itself
# ---------------------------------------------------------------------------


class TestHarness:
    def test_unarmed_fault_point_is_noop(self):
        fault_point("nothing.armed", detail=1)  # must not raise
        assert active_sites() == ()

    def test_fires_after_n_hits(self):
        with inject("site.a", after=2) as plan:
            fault_point("site.a")
            fault_point("site.a")
            with pytest.raises(InjectedFault):
                fault_point("site.a")
        assert plan.hits == 3
        assert plan.fired == 1

    def test_times_limits_firing(self):
        with inject("site.b", times=1):
            with pytest.raises(InjectedFault):
                fault_point("site.b")
            fault_point("site.b")  # already fired its once

    def test_times_none_fires_every_hit(self):
        with inject("site.c", times=None):
            for _ in range(3):
                with pytest.raises(InjectedFault):
                    fault_point("site.c")

    def test_detail_is_logged(self):
        with inject("site.d", after=10) as plan:
            fault_point("site.d", level=3, explored=17)
        assert plan.log == [{"level": 3, "explored": 17}]

    def test_exception_instance_class_and_factory(self):
        with inject("site.e", MemoryError):
            with pytest.raises(MemoryError):
                fault_point("site.e")
        boom = ValueError("boom")
        with inject("site.f", boom):
            with pytest.raises(ValueError, match="boom"):
                fault_point("site.f")
        with inject("site.g", lambda: OSError(28, "No space left on device")):
            with pytest.raises(OSError, match="No space left"):
                fault_point("site.g")

    def test_double_arm_is_a_test_bug(self):
        with inject("site.h"):
            with pytest.raises(RuntimeError, match="already armed"):
                with inject("site.h"):
                    pass  # pragma: no cover

    def test_disarms_on_exit_even_after_error(self):
        with pytest.raises(InjectedFault):
            with inject("site.i"):
                fault_point("site.i")
        assert active_sites() == ()
        fault_point("site.i")  # disarmed: no-op

    def test_non_exception_refused(self):
        with pytest.raises(TypeError, match="factory"):
            with inject("site.j", 42):
                pass  # pragma: no cover


# ---------------------------------------------------------------------------
# Damaged checkpoints are refused by digest (fail-closed loading)
# ---------------------------------------------------------------------------


class TestCorruptionRefused:
    @pytest.fixture
    def checkpoint(self, tmp_path, pipeline):
        path = str(tmp_path / "pipe.ckpt")
        explore(pipeline.system, checkpoint=CheckpointPolicy(path))
        return path

    def test_valid_checkpoint_loads(self, checkpoint, pipeline):
        loaded = load_checkpoint(checkpoint, pipeline.system)
        assert loaded["header"]["complete"] is True

    def test_flipped_payload_byte_refused(self, checkpoint, pipeline):
        flip_byte(checkpoint, -8)  # inside the last payload array
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_checkpoint(checkpoint, pipeline.system)

    def test_flipped_header_byte_refused(self, checkpoint, pipeline):
        flip_byte(checkpoint, len(b"RPROCKPT1\n") + 8 + 5)  # inside JSON
        with pytest.raises(CheckpointError):
            load_checkpoint(checkpoint, pipeline.system)

    def test_bad_magic_refused(self, checkpoint, pipeline):
        flip_byte(checkpoint, 0)
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(checkpoint, pipeline.system)

    def test_truncation_refused(self, checkpoint, pipeline):
        size = os.path.getsize(checkpoint)
        truncate_file(checkpoint, size - 16)
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(checkpoint, pipeline.system)

    def test_truncated_to_header_refused(self, checkpoint, pipeline):
        truncate_file(checkpoint, 12)
        with pytest.raises(CheckpointError):
            load_checkpoint(checkpoint, pipeline.system)

    def test_trailing_garbage_refused(self, checkpoint, pipeline):
        with open(checkpoint, "ab") as f:
            f.write(b"x")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(checkpoint, pipeline.system)

    def test_wrong_program_refused(self, checkpoint):
        other = build_pipeline_system(5, total=2).system  # edited program
        with pytest.raises(CheckpointError, match="different program"):
            load_checkpoint(checkpoint, other)
        with pytest.raises(CheckpointError, match="different program"):
            resume_exploration(checkpoint, other)

    def test_refused_resume_produces_no_subspace(self, checkpoint):
        """A refused checkpoint must not leave anything in the cache."""
        from repro.semantics.sparse.explorer import _CACHE

        other = build_pipeline_system(5, total=2).system
        with pytest.raises(CheckpointError):
            resume_exploration(checkpoint, other)
        assert other not in _CACHE


# ---------------------------------------------------------------------------
# Atomic writes: a crash at any stage never publishes a torn file
# ---------------------------------------------------------------------------


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "site",
        [
            "checkpoint.write.begin",
            "checkpoint.write.payload",
            "checkpoint.write.rename",
        ],
    )
    def test_crash_before_first_publish_leaves_nothing(
        self, tmp_path, pipeline, site
    ):
        path = str(tmp_path / "crash.ckpt")
        with inject(site, OSError("disk gone")):
            with pytest.raises(OSError, match="disk gone"):
                explore(
                    pipeline.system,
                    checkpoint=CheckpointPolicy(path=path, every_levels=1),
                )
        assert not os.path.exists(path)
        assert glob.glob(str(tmp_path / "*.tmp.*")) == []

    @pytest.mark.parametrize(
        "site",
        [
            "checkpoint.write.begin",
            "checkpoint.write.payload",
            "checkpoint.write.rename",
        ],
    )
    def test_crash_on_rewrite_keeps_previous_valid_checkpoint(
        self, tmp_path, site
    ):
        path = str(tmp_path / "rewrite.ckpt")
        program = fresh_program()
        # First write succeeds, the second crashes mid-write.
        with inject(site, OSError("disk gone"), after=write_stages(site)):
            with pytest.raises(OSError, match="disk gone"):
                explore(
                    program,
                    checkpoint=CheckpointPolicy(path=path, every_levels=1),
                )
        assert os.path.exists(path)
        loaded = load_checkpoint(path, program)  # previous write, intact
        assert loaded["header"]["complete"] is False
        assert glob.glob(str(tmp_path / "*.tmp.*")) == []
        # And the surviving checkpoint resumes to the full closure.
        sub = resume_exploration(path, fresh_program())
        assert np.array_equal(sub.global_ids, explore(fresh_program()).global_ids)


def write_stages(site: str) -> int:
    """Hits of ``site`` during one full checkpoint write.

    ``payload`` fires once per array (4 for an incomplete snapshot);
    ``begin``/``rename`` fire once.  Used to let the first write finish
    and crash the second.
    """
    return 4 if site == "checkpoint.write.payload" else 1


# ---------------------------------------------------------------------------
# Interrupts at level boundaries: checkpoint survives, resume is identical
# ---------------------------------------------------------------------------


class TestInterruptAtLevelBoundary:
    def test_interrupt_leaves_valid_checkpoint_resume_identical(self, tmp_path):
        reference = fresh_program()  # held: subspaces reference it weakly
        full = explore(reference)
        path = str(tmp_path / "int.ckpt")
        interrupted = fresh_program()
        with inject("sparse.explore.level", KeyboardInterrupt, after=3):
            with pytest.raises(KeyboardInterrupt):
                explore(
                    interrupted,
                    # Cadence deliberately never due: the snapshot below
                    # comes from the interrupt handler alone.
                    checkpoint=CheckpointPolicy(path=path, every_levels=10_000),
                )
        loaded = load_checkpoint(path, interrupted)
        assert loaded["header"]["complete"] is False
        assert 0 < loaded["header"]["levels"] < full.levels
        resumed_program = fresh_program()  # held for succ_local below
        sub = resume_exploration(path, resumed_program)
        assert np.array_equal(sub.global_ids, full.global_ids)
        assert np.array_equal(sub.dist, full.dist)
        assert np.array_equal(sub.parent, full.parent)
        assert np.array_equal(sub.parent_cmd, full.parent_cmd)
        assert sub.levels == full.levels
        assert sub.mover_names == full.mover_names
        for name in full.mover_names:
            assert np.array_equal(sub.succ_local(name), full.succ_local(name))

    def test_interrupt_without_policy_just_propagates(self):
        with inject("sparse.explore.level", KeyboardInterrupt, after=2):
            with pytest.raises(KeyboardInterrupt):
                explore(fresh_program())


# ---------------------------------------------------------------------------
# No partial subspace ever yields a verdict
# ---------------------------------------------------------------------------


class TestNoPartialVerdict:
    @pytest.fixture(autouse=True)
    def _route_sparse(self, monkeypatch):
        # The public checkers explore (and so spend the budget) only on
        # sparse-routed spaces; force the route for the small pipeline.
        monkeypatch.setattr("repro.semantics.sparse.SPARSE_THRESHOLD", 0)

    def test_budget_exhaustion_returns_unknown_not_verdict(self, pipeline):
        verdict = verify(
            pipeline.system, pipeline.delivery(), budget=Budget(max_levels=1)
        )
        assert verdict.holds is None
        result = verdict.partial
        assert isinstance(result, PartialResult)
        assert result.status == "unknown"
        assert not hasattr(result, "holds")
        with pytest.raises(TypeError, match="not a verdict"):
            bool(result)
        with pytest.raises(TypeError, match="not a verdict"):
            if result:  # pragma: no cover — the truth test itself raises
                pass

    def test_memory_spike_propagates_not_a_verdict(self, pipeline):
        with inject("sparse.explore.alloc", MemoryError, after=1):
            with pytest.raises(MemoryError):
                check_reachable_invariant(
                    pipeline.system, pipeline.conservation_predicate()
                )

    def test_memory_spike_is_not_negatively_cached(self):
        """Environmental failures must not poison the per-program cache."""
        program = fresh_program()
        with inject("sparse.explore.alloc", MemoryError, after=1):
            with pytest.raises(MemoryError):
                explore_via_cache(program)
        sub = explore_via_cache(program)  # second run: no fault, succeeds
        assert sub.size > 0

    def test_exploration_error_mid_run_writes_no_checkpoint_lie(
        self, tmp_path, pipeline
    ):
        """A fail-closed ExplorationError (hard node_limit) must not leave
        a checkpoint claiming completeness."""
        path = str(tmp_path / "hard.ckpt")
        with pytest.raises(ExplorationError, match="node_limit"):
            explore(
                pipeline.system,
                node_limit=3,
                checkpoint=CheckpointPolicy(path=path, every_levels=1),
            )
        if os.path.exists(path):
            loaded = load_checkpoint(path, pipeline.system)
            assert loaded["header"]["complete"] is False


def explore_via_cache(program):
    from repro.semantics.sparse.explorer import reachable_subspace

    return reachable_subspace(program)
