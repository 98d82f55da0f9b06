"""Tests for repro.gen.fuzz and repro.gen.shrink.

Three layers:

1. **Agreement** — ~100 seeded generated programs through the
   differential harness: every tier pair must agree on every case (any
   disagreement here is an engine bug).
2. **Sensitivity** — each injected fault in :data:`FAULTS` must be
   *detected* by the same sweep: a harness that passes under a known
   corruption would also pass over a real one.
3. **Shrinking** — a detected disagreement must reduce to a minimal
   repro of at most 5 commands that deterministically reproduces from
   its recorded seed, and survives a corpus round-trip through the DSL
   parser.
"""

import pytest

from repro.cli import main
from repro.gen.fuzz import (
    DEFAULT_CONFIG,
    FAULTS,
    check_roundtrip,
    fuzz_case,
    fuzz_run,
    run_differential,
)
from repro.gen.shrink import (
    corpus_entry,
    ddmin,
    load_corpus_entry,
    replay_entry,
    shrink,
    write_corpus_entry,
)


class TestGeneration:
    def test_case_is_seed_deterministic(self):
        a, b = fuzz_case(42), fuzz_case(42)
        assert a.source == b.source
        assert a.p_conjuncts == b.p_conjuncts
        assert a.q_conjuncts == b.q_conjuncts

    def test_distinct_seeds_differ(self):
        sources = {fuzz_case(s).source for s in range(12)}
        assert len(sources) > 6

    def test_generated_programs_are_domain_safe(self):
        """Every command's successor table computes without DomainError:
        building the transition system exercises all of them."""
        from repro.semantics.transition import TransitionSystem

        for seed in range(25):
            TransitionSystem.for_program(fuzz_case(seed).program)

    def test_bounds_respected(self):
        for seed in range(25):
            case = fuzz_case(seed)
            assert (
                DEFAULT_CONFIG.min_vars
                <= len(case.ast.decls)
                <= DEFAULT_CONFIG.max_vars
            )
            assert len(case.ast.commands) <= DEFAULT_CONFIG.max_commands


@pytest.mark.parametrize("batch", range(4))
def test_tiers_agree_on_generated_programs(batch):
    """The headline sweep: 4 × 25 seeded cases, all tier pairs agree."""
    result = fuzz_run(25, seed=batch * 25, roundtrip=False)
    assert result.ok, [
        (case.seed, report.describe())
        for case, report in result.disagreeing
    ]
    # Each case runs at least weak/strong/invariant; certificate rows
    # appear whenever synthesis succeeds.
    assert result.checks >= 3 * result.cases


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_harness_detects_injected_fault(fault):
    """Sensitivity: every named corruption must produce a disagreement
    within a bounded seed budget."""
    result = fuzz_run(80, seed=0, fault=fault, roundtrip=False, stop_at=1)
    assert result.disagreeing, f"harness blind to injected fault {fault!r}"
    _, report = result.disagreeing[0]
    bad = {c.name for c in report.disagreements}
    expected = {
        "sparse-unfair": {"leadsto-weak", "leadsto-strong"},
        "sparse-flip-weak": {"leadsto-weak"},
        "dense-forget-reach": {"invariant"},
        "dense-cone-flip": {"leadsto-cone-weak"},
        "sparse-step-memo": {"leadsto-weak", "leadsto-strong"},
    }[fault]
    assert bad & expected, (fault, bad)


def test_unknown_fault_rejected():
    case = fuzz_case(0)
    with pytest.raises(ValueError, match="unknown fault"):
        run_differential(case.program, case.p, case.q, fault="typo")


class TestDdmin:
    def test_minimizes_to_the_cause(self):
        # Interesting iff both 3 and 7 survive: ddmin must find exactly them.
        out = ddmin(list(range(10)), lambda xs: 3 in xs and 7 in xs)
        assert out == [3, 7]

    def test_single_cause(self):
        assert ddmin(list(range(32)), lambda xs: 17 in xs) == [17]

    def test_keeps_everything_when_all_needed(self):
        items = [1, 2, 3]
        assert ddmin(items, lambda xs: xs == items) == items


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_shrunk_repro_acceptance(fault):
    """The acceptance pin: an injected fault yields a shrunk repro of at
    most 5 commands that deterministically reproduces the disagreement
    from its recorded seed, end-to-end through the DSL parser."""
    result = fuzz_run(80, seed=0, fault=fault, roundtrip=False, stop_at=1)
    case, report = result.disagreeing[0]
    shrunk = shrink(case, report, fault=fault)
    assert shrunk.command_count <= 5

    # Deterministic reproduction from the recorded seed: regenerate the
    # case, re-shrink, and require the identical minimal program.
    case2 = fuzz_case(shrunk.seed)
    report2 = run_differential(case2.program, case2.p, case2.q, fault=fault)
    shrunk2 = shrink(case2, report2, fault=fault, check=shrunk.check)
    assert shrunk2.source == shrunk.source
    assert shrunk2.p_conjuncts == shrunk.p_conjuncts
    assert shrunk2.q_conjuncts == shrunk.q_conjuncts

    # The minimal repro replays through the corpus path (text → parser →
    # differential) and still shows the same disagreement.
    entry = corpus_entry(shrunk, note="acceptance test")
    replay = replay_entry(entry)
    assert shrunk.check in {c.name for c in replay.disagreements}

    # And the shrunk program still round-trips through the DSL.
    check_roundtrip(shrunk.program)


def test_shrink_requires_a_disagreement():
    case = fuzz_case(0)
    report = run_differential(case.program, case.p, case.q)
    assert report.ok
    with pytest.raises(ValueError, match="nothing to shrink"):
        shrink(case, report)


class TestCorpusFormat:
    def test_write_load_roundtrip(self, tmp_path):
        result = fuzz_run(80, seed=0, fault="sparse-flip-weak",
                          roundtrip=False, stop_at=1)
        case, report = result.disagreeing[0]
        shrunk = shrink(case, report, fault="sparse-flip-weak")
        path = write_corpus_entry(tmp_path, corpus_entry(shrunk))
        entry = load_corpus_entry(path)
        assert entry["fault"] == "sparse-flip-weak"
        assert entry["seed"] == case.seed
        assert entry["commands"] == shrunk.command_count
        replay = replay_entry(entry)
        assert entry["check"] in {c.name for c in replay.disagreements}

    def test_unknown_schema_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "something-else/9"}')
        with pytest.raises(ValueError, match="unknown corpus schema"):
            load_corpus_entry(bad)


class TestFuzzCli:
    def test_clean_sweep_exits_zero(self, capsys):
        assert main(["fuzz", "--count", "10"]) == 0
        out = capsys.readouterr().out
        assert "all tiers agree" in out

    def test_fault_mode_finds_and_shrinks(self, capsys, tmp_path):
        code = main([
            "fuzz", "--count", "80", "--fault", "sparse-unfair",
            "--corpus-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "shrunk to" in out
        assert "corpus entry" in out
        written = list(tmp_path.glob("*.json"))
        assert len(written) == 1
        entry = load_corpus_entry(written[0])
        assert entry["fault"] == "sparse-unfair"

    def test_unknown_fault_flag_is_an_error(self, capsys):
        assert main(["fuzz", "--fault", "nope"]) == 2

    def test_list_faults(self, capsys):
        assert main(["fuzz", "--list-faults"]) == 0
        out = capsys.readouterr().out
        for name in FAULTS:
            assert name in out
