"""Tests for the reproduction report (repro.report) and CLI (repro.cli)."""

import pytest

from repro.cli import build_parser, main
from repro.report import (
    ExperimentRow,
    render_markdown,
    render_text,
    run_experiment,
)

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
def ladder_file(tmp_path):
    path = tmp_path / "ladder.unity"
    path.write_text(LADDER)
    return path


class TestReport:
    def test_run_single_experiment(self):
        rows = run_experiment("E1")
        assert rows
        assert all(r.exp_id == "E1" for r in rows)
        assert all(r.ok for r in rows)

    def test_run_e12_ablation(self):
        rows = run_experiment("E12")
        assert all(r.ok for r in rows)
        texts = [r.paper_claim for r in rows]
        assert any("fairness gap" in t for t in texts)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("E99")

    def test_render_text_and_markdown(self):
        rows = [ExperimentRow("E1", "claim", "inst", "holds", "holds", 0.01)]
        text = render_text(rows)
        assert "E1" in text and "claim" in text
        md = render_markdown(rows)
        assert md.startswith("| Exp |")
        assert "| E1 |" in md

    def test_failed_row_flagged(self):
        row = ExperimentRow("E1", "c", "i", "holds", "fails", 0.0)
        assert not row.ok
        assert "✗" in render_text([row])


class TestCliParsing:
    def test_parser_subcommands(self):
        parser = build_parser()
        for argv in (
            ["info", "f"],
            ["check", "f", "-p", "invariant x = 0"],
            ["prove", "f", "--from", "true", "--to", "x = 3"],
            ["simulate", "f", "--steps", "5"],
            ["reproduce", "--exp", "E1"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCliCommands:
    def test_info(self, ladder_file, capsys):
        assert main(["info", str(ladder_file)]) == 0
        out = capsys.readouterr().out
        assert "state space : 4 states" in out
        assert "program Ladder" in out

    def test_info_counts_a_sparse_program(self, tmp_path, capsys):
        """``info`` reports what ``check`` decides on a space beyond the
        dense capacity (10^8 encoded states, 4 reachable)."""
        names = "abcdefgh"
        path = tmp_path / "wide.unity"
        path.write_text(
            "program Wide\n"
            "declare "
            + "; ".join(f"shared {v} : int[0..9]" for v in names)
            + "\ninitially "
            + " /\\ ".join(f"{v} = 0" for v in names)
            + "\nassign\n  fair up: a < 3 -> a := a + 1\nend\n"
        )
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "state space : 100000000 states" in out
        assert "initial     : 1 states" in out
        assert "reachable   : 4 states" in out

    def test_check_pass(self, ladder_file, capsys):
        code = main([
            "check", str(ladder_file),
            "-p", "invariant x <= 3",
            "-p", "true ~> x = 3",
        ])
        assert code == 0
        assert "HOLDS" in capsys.readouterr().out

    def test_check_fail_exit_code(self, ladder_file, capsys):
        code = main(["check", str(ladder_file), "-p", "invariant x = 0"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILS" in out
        assert "counterexample" in out

    def test_prove_success(self, ladder_file, capsys):
        code = main([
            "prove", str(ladder_file), "--from", "x = 0", "--to", "x = 3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "metric-induction" in out
        assert "proof OK" in out

    def test_prove_failure(self, ladder_file, capsys):
        code = main([
            "prove", str(ladder_file), "--from", "x = 3", "--to", "x = 0",
        ])
        assert code == 1
        assert "NOT PROVABLE" in capsys.readouterr().out

    def test_simulate(self, ladder_file, capsys):
        assert main(["simulate", str(ladder_file), "--steps", "6"]) == 0
        out = capsys.readouterr().out
        assert "(initial)" in out
        assert "x=3" in out

    def test_simulate_until(self, ladder_file, capsys):
        code = main([
            "simulate", str(ladder_file), "--until", "x = 3", "--steps", "50",
        ])
        assert code == 0
        assert "reached" in capsys.readouterr().out

    def test_simulate_random_seed(self, ladder_file, capsys):
        assert main([
            "simulate", str(ladder_file), "--steps", "10", "--seed", "3",
        ]) == 0

    def test_reproduce_single(self, capsys):
        assert main(["reproduce", "--exp", "E8"]) == 0
        out = capsys.readouterr().out
        assert "reproduce" in out

    def test_reproduce_markdown(self, capsys):
        assert main(["reproduce", "--exp", "E8", "--markdown"]) == 0
        assert "| Exp |" in capsys.readouterr().out

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["info", str(tmp_path / "absent.unity")])

    def test_dsl_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.unity"
        bad.write_text("program X garbage end")
        code = main(["info", str(bad)])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_deeply_nested_property_is_a_syntax_error(self, tmp_path, capsys):
        # Exit 2 (bad input), not 1 (a property failed) or a traceback.
        path = tmp_path / "deep.prog"
        path.write_text(
            "program Deep\ndeclare shared x : int[0..2]\ninitially x = 0\n"
            "assign\n  fair up: x < 2 -> x := x + 1\nend\n"
        )
        deep = "(" * 400 + "x = 0" + ")" * 400 + " ~> x = 2"
        assert main(["check", str(path), "-p", deep]) == 2
        assert "nested too deeply" in capsys.readouterr().err


MODULE = """
program A
declare shared t : bool; local na : int[0..2]
initially ~t /\\ na = 0
assign fair a: ~t /\\ na < 2 -> t := true || na := na + 1
end

program B
declare shared t : bool; local nb : int[0..2]
initially ~t /\\ nb = 0
assign fair b: t /\\ nb < 2 -> t := false || nb := nb + 1
end

system AB = A || B
"""


@pytest.fixture()
def module_file(tmp_path):
    path = tmp_path / "module.unity"
    path.write_text(MODULE)
    return path


class TestCliModules:
    def test_default_is_last_system(self, module_file, capsys):
        assert main(["info", str(module_file)]) == 0
        out = capsys.readouterr().out
        assert "program AB" in out

    def test_select_component(self, module_file, capsys):
        assert main(["info", str(module_file), "--program", "A"]) == 0
        assert "program A" in capsys.readouterr().out

    def test_unknown_selection(self, module_file):
        with pytest.raises(SystemExit, match="no program named"):
            main(["info", str(module_file), "--program", "Zed"])

    def test_multi_program_without_system_needs_selection(self, tmp_path):
        src = MODULE.split("system")[0]  # drop the system directive
        path = tmp_path / "two.unity"
        path.write_text(src)
        with pytest.raises(SystemExit, match="pick one"):
            main(["info", str(path)])

    def test_check_on_composed_system(self, module_file, capsys):
        code = main([
            "check", str(module_file),
            "-p", "invariant na - nb = (if t then 1 else 0)",
        ])
        assert code == 0
        assert "HOLDS" in capsys.readouterr().out
