"""Tests for benchmarks/record.py: snapshot distillation and ``--diff``."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "benchmarks" / "record.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(name: str, median: float, **extra) -> dict:
    stats = {"median": median, "min": median / 2, "iqr": median / 10,
             "rounds": 7, "max": median * 3, "mean": median}
    stats.update(extra)
    return {"fullname": name, "stats": stats}


def test_distill_keeps_median_and_spread_per_id(record):
    payload = {"benchmarks": [_bench("b::two", 2.0), _bench("a::one", 1.0, rounds=3)]}
    medians, stats = record.distill(payload)
    assert list(medians) == ["a::one", "b::two"]
    assert medians == {"a::one": 1.0, "b::two": 2.0}
    assert stats == {
        "a::one": {"rounds": 3, "min": 0.5, "iqr": 0.1},
        "b::two": {"rounds": 7, "min": 1.0, "iqr": 0.2},
    }


def test_diff_reads_a_snapshot_without_stats(record, tmp_path, capsys):
    old = ROOT / "BENCH_9.json"
    assert "stats" not in json.loads(old.read_text())
    key = next(iter(json.loads(old.read_text())["medians"]))
    medians, stats = record.distill({"benchmarks": [_bench(key, 0.001)]})
    new = tmp_path / "new.json"
    new.write_text(json.dumps({"medians": medians, "stats": stats}))
    assert record.main(["--diff", str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert key in out and "1.000ms" in out


def test_diff_marks_moves_inside_the_iqrs_as_noise(record, tmp_path, capsys):
    # iqr = median / 10: 1.00 vs 1.15 ms lies inside 0.1 + 0.115 ms,
    # 1.00 vs 2.00 ms does not.
    old_m, old_st = record.distill(
        {"benchmarks": [_bench("a::flat", 0.001), _bench("b::fast", 0.002)]}
    )
    new_m, new_st = record.distill(
        {"benchmarks": [_bench("a::flat", 0.00115), _bench("b::fast", 0.001)]}
    )
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"medians": old_m, "stats": old_st}))
    new.write_text(json.dumps({"medians": new_m, "stats": new_st}))
    for flags in ([], ["--github-summary"]):
        assert record.main(["--diff", str(old), str(new), *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        flat = next(line for line in lines if "a::flat" in line)
        fast = next(line for line in lines if "b::fast" in line)
        assert "noise" in flat and "0.87x" not in flat
        assert "2.00x" in fast and "noise" not in fast
