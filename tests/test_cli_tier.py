"""The CLI reports the tier of the domain that decided a run.

A space above the sparse threshold whose exploration fails falls back
to the dense tier; the run manifest and the ``scenario`` header must say
so, and ``prove`` must not explore a second time for its certificate
check.  Cheap to test: lower the threshold and make every exploration
fail.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ExplorationError

LADDER = """
program Ladder
declare shared x : int[0..3]
initially x = 0
assign
  fair up0: x = 0 -> x := 1;
  fair up1: x = 1 -> x := 2;
  fair up2: x = 2 -> x := 3
end
"""


@pytest.fixture()
def explorations(monkeypatch):
    """Route every space to the sparse tier and fail its exploration;
    returns the list of programs a BFS was attempted on.  The patch sits
    below the subspace cache, so a failure cached once is not counted
    again."""
    import repro.semantics.sparse.explorer as explorer_mod

    calls = []

    def failing(program, **_):
        calls.append(program.name)
        raise ExplorationError("reachable set exceeds node_limit")

    monkeypatch.setattr("repro.semantics.sparse.SPARSE_THRESHOLD", 0)
    monkeypatch.setattr(explorer_mod, "explore", failing)
    return calls


@pytest.fixture()
def ladder_file(tmp_path):
    path = tmp_path / "ladder.unity"
    path.write_text(LADDER)
    return path


def _manifest(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_prove_after_dense_fallback_records_dense(
    explorations, ladder_file, tmp_path, capsys
):
    out = tmp_path / "m.json"
    code = main([
        "prove", str(ladder_file), "--from", "x = 0", "--to", "x = 3",
        "--quiet", "--metrics-out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out.startswith("proof OK:")
    assert _manifest(out)["tier"] == "dense"
    assert explorations == ["Ladder"]


def test_failing_prove_names_the_dense_tier_in_both_places(
    explorations, ladder_file, tmp_path, capsys
):
    out = tmp_path / "m.json"
    code = main([
        "prove", str(ladder_file), "--from", "x = 3", "--to", "x = 0",
        "--quiet", "--metrics-out", str(out),
    ])
    assert code == 1
    assert "FAILS [dense]" in capsys.readouterr().out
    assert _manifest(out)["tier"] == "dense"
    assert explorations == ["Ladder"]


def test_scenario_header_after_dense_fallback_says_dense(explorations, capsys):
    assert main(["scenario", "pipeline", "--stages", "2", "--total", "1"]) == 0
    text = capsys.readouterr().out
    assert "states (dense tier)" in text
    assert "(sparse tier)" not in text


def test_sparse_run_still_records_sparse(ladder_file, tmp_path, monkeypatch):
    monkeypatch.setattr("repro.semantics.sparse.SPARSE_THRESHOLD", 0)
    out = tmp_path / "m.json"
    code = main([
        "prove", str(ladder_file), "--from", "x = 0", "--to", "x = 3",
        "--quiet", "--metrics-out", str(out),
    ])
    assert code == 0
    assert _manifest(out)["tier"] == "sparse"


def test_exhausted_prove_names_the_leadsto_question(
    ladder_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr("repro.semantics.sparse.SPARSE_THRESHOLD", 0)
    monkeypatch.chdir(tmp_path)
    code = main([
        "prove", str(ladder_file), "--from", "x = 0", "--to", "x = 3",
        "--max-levels", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "[UNKNOWN] leadsto: x = 0 ~> x = 3 — " in out
    assert "status=unknown checkpoint=ladder.ckpt" in out


def test_check_records_the_tier_of_its_verdicts(tmp_path):
    path = tmp_path / "four.unity"
    path.write_text(LADDER)
    out = tmp_path / "m.json"
    code = main([
        "check", str(path), "-p", "true ~> x = 3", "-p", "invariant x <= 3",
        "--metrics-out", str(out),
    ])
    assert code == 0
    manifest = _manifest(out)
    assert [row["tier"] for row in manifest["verdicts"]] == ["dense", "dense"]
    assert manifest["tier"] == "dense"


def test_sparse_check_records_sparse(ladder_file, tmp_path, monkeypatch):
    monkeypatch.setattr("repro.semantics.sparse.SPARSE_THRESHOLD", 0)
    out = tmp_path / "m.json"
    code = main([
        "check", str(ladder_file), "-p", "true ~> x = 3",
        "--metrics-out", str(out),
    ])
    assert code == 0
    assert _manifest(out)["tier"] == "sparse"
