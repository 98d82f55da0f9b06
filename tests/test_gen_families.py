"""Tests for repro.gen.families: the generator-driven scenario catalog.

Every family builds a composed program plus an expected-property
manifest; these tests sweep small instances of each family through the
tier-routed engine and require every manifest row — including the
negative exhibits — to come out exactly as predicted.
"""

import inspect

import pytest

from repro.cli import build_parser, main
from repro.gen.families import (
    CATALOG,
    FAMILIES,
    HAND_BUILT,
    build_scenario,
    run_scenario,
)


class TestRegistry:
    def test_families_registered(self):
        assert set(FAMILIES) == {"torus", "hypercube", "regular", "fanout", "mesh"}

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario family"):
            build_scenario("moebius")

    def test_none_params_dropped(self):
        sc = build_scenario("hypercube", d=None)
        assert sc.params == {"d": 3}

    def test_every_family_has_a_negative_or_liveness_row(self):
        """Each manifest mixes kinds: at least one invariant and at least
        one leads-to row, so a sweep exercises both checker families."""
        for name in FAMILIES:
            sc = build_scenario(name, **_small(name))
            kinds = {c.kind for c in sc.checks}
            assert kinds == {"invariant", "leadsto"}, name

    def test_catalog_is_both_dicts(self):
        assert set(HAND_BUILT) == {"pipeline", "philosophers", "grid", "product"}
        assert set(CATALOG) == set(HAND_BUILT) | set(FAMILIES)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_cli_params_wire_real_flags_to_builder_keywords(self, name):
        """Every ``(parameter, dest)`` pair names a ``scenario`` parser
        dest and a keyword of the row's builder."""
        dests = set(vars(build_parser().parse_args(["scenario", name])))
        spec = CATALOG[name]
        keywords = set(inspect.signature(spec.build).parameters)
        assert spec.cli_params
        for param, dest in spec.cli_params:
            assert dest in dests, (name, dest)
            assert param in keywords, (name, param)

    def test_describe_mentions_params(self):
        sc = build_scenario("torus")
        assert "torus" in sc.describe()
        assert "rows=3" in sc.describe()


def _small(name: str) -> dict:
    """Small-instance parameters so the whole sweep stays fast."""
    return {
        "torus": {"rows": 3, "cols": 3},
        "hypercube": {"d": 3},
        "regular": {"n": 8, "d": 3, "seed": 7},
        "fanout": {"widths": (2, 2), "total": 2},
        "mesh": {"pools": 2, "clients": 3, "total": 2},
    }[name]


class TestManifests:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_manifest_verdicts(self, name):
        sc = build_scenario(name, **_small(name))
        for check, result in run_scenario(sc):
            assert result.holds == check.expected, (name, check.label)

    def test_philosopher_families_share_shape(self):
        """All three graph families wrap the same philosopher system:
        one mutual-exclusion invariant plus one liveness leads-to."""
        for name in ("torus", "hypercube", "regular"):
            sc = build_scenario(name, **_small(name))
            labels = [c.label for c in sc.checks]
            assert labels == ["mutual_exclusion", "liveness(0)"], name

    def test_regular_family_is_seed_deterministic(self):
        a = build_scenario("regular", n=8, d=3, seed=11)
        b = build_scenario("regular", n=8, d=3, seed=11)
        assert a.program.name == b.program.name
        assert (a.program.initial_mask() == b.program.initial_mask()).all()

    def test_fanout_negative_exhibit_is_negative(self):
        sc = build_scenario("fanout", widths=(2, 2), total=2)
        negatives = [c for c in sc.checks if not c.expected]
        assert negatives and negatives[0].label.startswith("no_recycling")


class TestScenarioCli:
    def test_list_mentions_families(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        row_names = {line.split(" ")[0] for line in out.splitlines()}
        assert set(CATALOG) | {"compose50"} <= row_names

    @pytest.mark.parametrize(
        "argv,rows",
        [
            (["pipeline", "--stages", "4", "--total", "2"], 3),
            (["philosophers", "--n", "4"], 2),
            (["grid", "--rows", "2", "--cols", "3"], 2),
            (["product", "--stages", "8", "--clients", "2"], 3),
        ],
        ids=["pipeline", "philosophers", "grid", "product"],
    )
    def test_hand_built_rows_run_as_expected(self, argv, rows, capsys):
        """One "as expected" per manifest row, and nothing unexpected."""
        assert main(["scenario", *argv]) == 0
        out = capsys.readouterr().out
        assert "UNEXPECTED" not in out
        assert out.count("as expected") == rows

    def test_hypercube_runs_sparse(self, capsys):
        assert main(["scenario", "hypercube"]) == 0
        out = capsys.readouterr().out
        assert "sparse tier" in out
        assert "UNEXPECTED" not in out
        assert out.count("as expected") == 2

    def test_fanout_with_flags(self, capsys):
        assert main(["scenario", "fanout", "--widths", "2,2", "--total", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fanout[2x2]" in out
        assert out.count("as expected") == 3

    def test_mesh_small(self, capsys):
        code = main([
            "scenario", "mesh", "--pools", "2", "--clients", "3",
            "--total", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Mesh[2p3c]" in out
        assert "full_refill (negative exhibit): as expected" in out

    def test_regular_with_graph_seed(self, capsys):
        code = main([
            "scenario", "regular", "--n", "8", "--dim", "3",
            "--graph-seed", "3",
        ])
        assert code == 0
        assert "as expected" in capsys.readouterr().out

    def test_torus_budget_unknown_is_clean(self, capsys, tmp_path):
        """A torus run under an exhausted budget degrades to UNKNOWN."""
        ckpt = tmp_path / "torus.ckpt"
        code = main([
            "scenario", "torus", "--max-levels", "2",
            "--checkpoint", str(ckpt),
        ])
        assert code == 0
        assert "status=unknown" in capsys.readouterr().out
        assert ckpt.exists()
