"""Engine telemetry: recorder semantics, neutrality, manifests, CLI.

Pins the observability contracts of ``docs/observability.md``:

- **neutrality** — instrumentation only observes: with a live
  :class:`~repro.obs.MetricsRecorder` installed, the sparse explorer
  produces **bit-identical** subspaces (global ids, distances, parents,
  successor columns), the checkers identical verdicts (the attached
  ``witness["metrics"]`` is the *only* permitted delta), and the
  synthesizer identical certificates, versus the recorder-off run;
- the **null recorder** is the stateless default: every method a no-op,
  ``enabled`` false, nothing ever recorded;
- **recorder semantics** — nested spans build a tree with counters on
  the innermost open span, whole-run totals roll up, gauges keep
  watermarks, exception unwinds close dangling spans, heartbeats are
  throttled but the first and any ``final=True`` always render;
- the **run manifest** carries the schema id, program digest, per-phase
  wall/CPU rows, counter totals, and verdict rows;
- **checkpoint metrics** — headers record the cumulative
  ``{explored, levels, elapsed_s}`` snapshot, so resumed runs report
  cumulative statistics and exhaustion messages carry the discovery
  rate and last frontier size;
- the **CLI surface** — ``--trace`` / ``--metrics-out`` / ``--progress``
  write the JSONL trace, the manifest, and heartbeat lines.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.errors import BudgetExhausted
from repro.obs import (
    NULL_RECORDER,
    MetricsRecorder,
    NullRecorder,
    build_manifest,
    write_manifest,
)
from repro.obs.manifest import MANIFEST_SCHEMA
from repro.semantics.budget import Budget, PartialResult
from repro.semantics.sparse import CheckpointPolicy, load_checkpoint
from repro.semantics.checker import check_reachable_invariant
from repro.semantics.leadsto import check_leadsto
from repro.semantics.sparse.explorer import explore, reachable_subspace
from repro.semantics.synthesis import (
    check_certificate_batched,
    synthesize_leadsto_proof,
)
from repro.systems.pipeline import build_pipeline_system


def fresh_pipeline(stages: int = 4, total: int = 2):
    """A fresh pipeline system per call (the engine's caches are keyed by
    Program identity, so both arms of a differential pay the full run)."""
    return build_pipeline_system(stages, total=total)


# ---------------------------------------------------------------------------
# Recorder semantics
# ---------------------------------------------------------------------------


class TestRecorder:
    def test_span_tree_and_counter_attachment(self):
        rec = MetricsRecorder()
        with rec.span("outer", program="P"):
            rec.add("a", 2)
            with rec.span("inner", level=1):
                rec.add("a", 3)
                rec.add("b")
        metrics = rec.metrics()
        assert [s.name for s in metrics.phases] == ["outer"]
        outer = metrics.phases[0]
        assert outer.attrs == {"program": "P"}
        assert outer.counters == {"a": 2}
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.children[0].counters == {"a": 3, "b": 1}
        # Roll-up: totals sum over the whole tree.
        assert metrics.counters == {"a": 5, "b": 1}
        assert outer.total_counters() == {"a": 5, "b": 1}
        assert outer.wall is not None and outer.wall >= 0.0
        assert outer.cpu is not None

    def test_run_level_add_without_open_span(self):
        rec = MetricsRecorder()
        rec.add("loose", 4)
        assert rec.totals() == {"loose": 4}

    def test_gauge_is_a_watermark(self):
        rec = MetricsRecorder()
        rec.gauge_max("peak", 10)
        rec.gauge_max("peak", 3)
        rec.gauge_max("peak", 12)
        assert rec.metrics().gauges == {"peak": 12}

    def test_exception_unwind_closes_inner_spans(self):
        rec = MetricsRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("outer"):
                # Simulate a raise that unwinds past an inner open span
                # (the context closes outer before inner).
                rec.span("inner")
                raise RuntimeError("boom")
        metrics = rec.metrics()
        outer = metrics.phases[0]
        assert outer.wall is not None
        assert outer.children[0].wall is not None

    def test_phase_summary_merges_by_name(self):
        rec = MetricsRecorder()
        for k in range(3):
            with rec.span("phase"):
                rec.add("n", k)
        rows = rec.metrics().phase_summary()
        assert len(rows) == 1
        assert rows[0]["phase"] == "phase"
        assert rows[0]["calls"] == 3
        assert rows[0]["counters"] == {"n": 3}

    def test_trace_events_shape_and_order(self):
        rec = MetricsRecorder()
        with rec.span("outer"):
            rec.event("mark", detail="x")
            with rec.span("inner"):
                rec.add("k")
        rows = rec.trace_events()
        assert [r["ev"] for r in rows] == ["span", "mark", "span"]
        spans = [r for r in rows if r["ev"] == "span"]
        assert [s["depth"] for s in spans] == [0, 1]
        assert spans[1]["counters"] == {"k": 1}
        assert all(r["t_s"] >= 0 for r in rows)
        # Sorted by start offset.
        assert [r["t_s"] for r in rows] == sorted(r["t_s"] for r in rows)

    def test_write_trace_is_jsonl(self, tmp_path):
        rec = MetricsRecorder()
        with rec.span("outer"):
            rec.heartbeat(level=1, nodes=10)
        path = rec.write_trace(tmp_path / "t.jsonl")
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        assert {row["ev"] for row in lines} == {"span", "heartbeat"}

    def test_heartbeat_first_and_final_always_render(self):
        stream = io.StringIO()
        rec = MetricsRecorder(
            progress=True, progress_stream=stream, progress_interval=3600.0
        )
        rec.heartbeat(level=1, nodes=5)
        rec.heartbeat(level=2, nodes=9)      # throttled away
        rec.heartbeat(level=3, nodes=12, final=True)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert "level=1" in lines[0]
        assert "level=3" in lines[1] and lines[1].endswith("done")
        # All three are still in the event stream.
        beats = [e for e in rec.metrics().events if e["ev"] == "heartbeat"]
        assert len(beats) == 3

    def test_heartbeat_interval_zero_renders_all(self):
        stream = io.StringIO()
        rec = MetricsRecorder(
            progress=True, progress_stream=stream, progress_interval=0.0
        )
        for k in range(3):
            rec.heartbeat(level=k)
        assert len(stream.getvalue().splitlines()) == 3

    def test_heartbeat_silent_without_progress(self):
        stream = io.StringIO()
        rec = MetricsRecorder(progress=False, progress_stream=stream)
        rec.heartbeat(level=1)
        assert stream.getvalue() == ""


class TestNullRecorder:
    def test_is_process_default(self):
        assert obs.get_recorder() is NULL_RECORDER
        assert not NULL_RECORDER.enabled

    def test_every_method_is_a_noop(self):
        rec = NullRecorder()
        with rec.span("anything", attr=1) as span:
            rec.add("n", 5)
            rec.gauge_max("g", 1)
            rec.event("e")
            rec.heartbeat(level=1)
        # The shared span context is reused and stateless.
        assert span is rec.span("other").__enter__()
        assert not hasattr(rec, "__dict__")

    def test_use_recorder_installs_and_restores(self):
        rec = MetricsRecorder()
        with obs.use_recorder(rec) as installed:
            assert installed is rec
            assert obs.get_recorder() is rec
        assert obs.get_recorder() is NULL_RECORDER

    def test_set_recorder_none_means_null(self):
        obs.set_recorder(None)
        assert obs.get_recorder() is NULL_RECORDER


# ---------------------------------------------------------------------------
# Neutrality: recorder-on vs recorder-off bit-identical engine output
# ---------------------------------------------------------------------------


class TestNeutrality:
    def test_subspace_bit_identical(self):
        pl_off, pl_on = fresh_pipeline(), fresh_pipeline()
        sub_off = explore(pl_off.system)
        with obs.use_recorder(MetricsRecorder()):
            sub_on = explore(pl_on.system)
        np.testing.assert_array_equal(sub_off.global_ids, sub_on.global_ids)
        np.testing.assert_array_equal(sub_off.dist, sub_on.dist)
        np.testing.assert_array_equal(sub_off.parent, sub_on.parent)
        np.testing.assert_array_equal(sub_off.parent_cmd, sub_on.parent_cmd)
        assert sub_off.levels == sub_on.levels
        for cmd in sub_off.program.commands:
            np.testing.assert_array_equal(
                sub_off.succ_local(cmd),
                sub_on.succ_local(cmd.name),
            )

    def test_verdicts_identical_modulo_metrics_key(self):
        def verdicts(record: bool):
            pl = fresh_pipeline()
            prop = pl.delivery()
            if record:
                with obs.use_recorder(MetricsRecorder()):
                    sub = reachable_subspace(pl.system)
                    results = [
                        check_reachable_invariant(
                            pl.system, pl.conservation_predicate(), subspace=sub
                        ),
                        check_leadsto(pl.system, prop.p, prop.q, subspace=sub),
                    ]
            else:
                sub = reachable_subspace(pl.system)
                results = [
                    check_reachable_invariant(
                        pl.system, pl.conservation_predicate(), subspace=sub
                    ),
                    check_leadsto(pl.system, prop.p, prop.q, subspace=sub),
                ]
            rows = []
            for res in results:
                witness = dict(res.witness)
                witness.pop("metrics", None)
                rows.append((res.holds, res.kind, res.message, witness))
            return rows

        assert verdicts(False) == verdicts(True)

    def test_witness_metrics_only_with_recorder(self):
        pl = fresh_pipeline()
        res_off = check_reachable_invariant(
            pl.system,
            pl.conservation_predicate(),
            subspace=reachable_subspace(pl.system),
        )
        assert "metrics" not in res_off.witness
        pl2 = fresh_pipeline()
        with obs.use_recorder(MetricsRecorder()):
            res_on = check_reachable_invariant(
                pl2.system,
                pl2.conservation_predicate(),
                subspace=reachable_subspace(pl2.system),
            )
        stats = res_on.witness["metrics"]
        assert stats["nodes"] == res_on.witness["reachable"]
        assert stats["levels"] > 0
        assert stats["elapsed_s"] >= 0.0

    def test_certificates_identical(self):
        def certificate(record: bool):
            pl = fresh_pipeline()
            prop = pl.delivery()
            if record:
                with obs.use_recorder(MetricsRecorder()):
                    proof = synthesize_leadsto_proof(
                        pl.system, prop.p, prop.q
                    )
                    check = check_certificate_batched(proof, pl.system)
            else:
                proof = synthesize_leadsto_proof(pl.system, prop.p, prop.q)
                check = check_certificate_batched(proof, pl.system)
            levels = [
                np.asarray(level.members, dtype=np.int64)
                for level in proof.levels
            ]
            return proof.count_nodes(), levels, (
                check.ok, check.mode, check.obligations_checked
            )

        nodes_off, levels_off, check_off = certificate(False)
        nodes_on, levels_on, check_on = certificate(True)
        assert nodes_off == nodes_on
        assert check_off == check_on
        assert len(levels_off) == len(levels_on)
        for a, b in zip(levels_off, levels_on):
            np.testing.assert_array_equal(a, b)

    def test_engine_counters_actually_recorded(self):
        pl = fresh_pipeline()
        with obs.use_recorder(MetricsRecorder()) as rec:
            sub = explore(pl.system)
        totals = rec.totals()
        assert totals["sparse.bfs.levels"] == sub.levels - 1
        # Fresh nodes exclude the initial level-0 states.
        assert totals["sparse.bfs.nodes"] == sub.size - sub.init_local.size
        assert totals["kernel.succ_of.calls"] > 0
        assert rec.metrics().gauges["sparse.bfs.peak_bytes"] > 0
        phases = {s.name for s in rec.metrics().phases}
        assert "sparse.bfs" in phases
        # sub.stats mirrors the run for witness attachment.
        assert sub.stats["nodes"] == sub.size
        assert sub.stats["levels"] == sub.levels


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------


class TestManifest:
    def test_manifest_shape_and_roundtrip(self, tmp_path):
        pl = fresh_pipeline()
        with obs.use_recorder(MetricsRecorder()) as rec:
            explore(pl.system)
        manifest = build_manifest(
            rec,
            program=pl.system,
            tier="sparse",
            verdicts=[{"kind": "demo", "holds": True}],
            budget={"deadline": 1.0},
            checkpoint_path="demo.ckpt",
            command=["unit", "test"],
        )
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["command"] == ["unit", "test"]
        assert manifest["program"]["name"] == pl.system.name
        assert manifest["program"]["space_size"] == pl.system.space.size
        assert len(manifest["program"]["digest"]) == 64
        assert manifest["tier"] == "sparse"
        assert manifest["verdicts"] == [{"kind": "demo", "holds": True}]
        assert manifest["budget"] == {"deadline": 1.0}
        assert manifest["checkpoint_path"] == "demo.ckpt"
        assert manifest["wall_s"] >= 0.0
        phase_names = [row["phase"] for row in manifest["phases"]]
        assert "sparse.bfs" in phase_names
        assert manifest["counters"]["sparse.bfs.levels"] > 0
        path = write_manifest(tmp_path / "m.json", manifest)
        assert json.load(open(path, encoding="utf-8")) == json.loads(
            json.dumps(manifest, default=str)
        )

    def test_manifest_accepts_bare_runmetrics(self):
        rec = MetricsRecorder()
        with rec.span("only"):
            rec.add("n")
        manifest = build_manifest(rec.metrics())
        assert manifest["counters"] == {"n": 1}
        assert "program" not in manifest
        assert "tier" not in manifest


# ---------------------------------------------------------------------------
# Checkpoint metrics and exhaustion pace (satellites a + b)
# ---------------------------------------------------------------------------


class TestCheckpointMetrics:
    def test_header_records_metrics_snapshot(self, tmp_path):
        pl = fresh_pipeline(6, total=3)
        path = tmp_path / "run.ckpt"
        with pytest.raises(BudgetExhausted) as info:
            explore(
                pl.system,
                budget=Budget(max_levels=3),
                checkpoint=CheckpointPolicy(path=str(path), every_levels=1),
            )
        header = load_checkpoint(str(path), pl.system)["header"]
        recorded = header["metrics"]
        assert recorded["explored"] == info.value.explored
        assert recorded["levels"] == info.value.levels
        assert recorded["elapsed_s"] >= 0.0

    def test_exhaustion_carries_rate_and_frontier(self):
        pl = fresh_pipeline(6, total=3)
        with pytest.raises(BudgetExhausted) as info:
            explore(pl.system, budget=Budget(max_levels=3))
        exc = info.value
        assert exc.rate > 0.0
        assert exc.frontier > 0
        assert "states/s" in str(exc)
        assert "last frontier" in str(exc)
        partial = PartialResult.from_exhaustion(
            exc, kind="exploration", subject=pl.system.name
        )
        assert partial.rate == exc.rate
        assert partial.frontier == exc.frontier
        assert "states/s" in partial.explain()

    def test_resumed_run_reports_cumulative_stats(self, tmp_path):
        path = tmp_path / "resume.ckpt"
        pl = fresh_pipeline(6, total=3)
        with pytest.raises(BudgetExhausted):
            explore(
                pl.system,
                budget=Budget(max_levels=3),
                checkpoint=CheckpointPolicy(path=str(path), every_levels=1),
            )
        from repro.semantics.sparse import resume_exploration

        pl2 = fresh_pipeline(6, total=3)
        sub = resume_exploration(str(path), pl2.system)
        pl3 = fresh_pipeline(6, total=3)
        baseline = explore(pl3.system)
        # Cumulative, not since-resume: the stats cover the whole BFS.
        assert sub.stats["levels"] == baseline.levels
        assert sub.stats["nodes"] == baseline.size
        assert sub.stats["resumed_levels"] > 1
        assert sub.stats["elapsed_s"] >= 0.0
        assert sub.stats["rate"] > 0.0


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_scenario_writes_trace_and_manifest(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        out = tmp_path / "m.json"
        # Default 10-stage pipeline: 4^12 encoded states routes sparse.
        code = main([
            "scenario", "pipeline",
            "--trace", str(trace), "--metrics-out", str(out),
        ])
        assert code == 0
        manifest = json.load(open(out, encoding="utf-8"))
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["tier"] == "sparse"
        assert manifest["program"]["name"].startswith("Pipeline")
        kinds = [row["kind"] for row in manifest["verdicts"]]
        assert "reachable-invariant" in kinds
        assert "leadsto" in kinds
        assert manifest["counters"]["sparse.bfs.levels"] > 0
        rows = [
            json.loads(line)
            for line in open(trace, encoding="utf-8")
            if line.strip()
        ]
        assert any(
            r["ev"] == "span" and r["name"] == "sparse.bfs" for r in rows
        )
        assert any(r["ev"] == "heartbeat" for r in rows)
        assert "manifest written" in capsys.readouterr().out

    def test_progress_prints_heartbeats(self, tmp_path, capsys):
        code = main(["scenario", "pipeline", "--progress"])
        assert code == 0
        err = capsys.readouterr().err
        assert "[progress]" in err
        assert "done" in err

    def test_prove_manifest_records_certificate_check(self, tmp_path):
        module = tmp_path / "counter.unity"
        module.write_text(
            "program Counter\n"
            "declare\n"
            "  local x : int[0..3]\n"
            "initially\n"
            "  x = 0\n"
            "assign\n"
            "  fair step: x < 3 -> x := x + 1\n"
            "end\n"
        )
        out = tmp_path / "m.json"
        code = main([
            "prove", str(module), "--from", "x = 0", "--to", "x = 3",
            "--quiet", "--metrics-out", str(out),
        ])
        assert code == 0
        manifest = json.load(open(out, encoding="utf-8"))
        rows = [
            row for row in manifest["verdicts"]
            if row["kind"] == "certificate-check"
        ]
        assert rows and rows[0]["ok"] is True
        assert rows[0]["obligations"] > 0

    def test_unknown_run_still_writes_manifest(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "m.json"
        code = main([
            "scenario", "pipeline", "--max-levels", "2",
            "--metrics-out", str(out),
        ])
        assert code == 0
        manifest = json.load(open(out, encoding="utf-8"))
        unknown = [
            row for row in manifest["verdicts"]
            if row.get("status") == "unknown"
        ]
        assert unknown
        assert unknown[0]["reason"] == "level-budget"
        assert unknown[0]["rate"] >= 0.0
        assert manifest["checkpoint_path"].endswith(".ckpt")

    def test_no_flags_means_null_recorder(self, capsys):
        code = main(["scenario", "pipeline", "--stages", "4", "--total", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "manifest written" not in captured.out
        assert "[progress]" not in captured.err
        assert obs.get_recorder() is NULL_RECORDER
