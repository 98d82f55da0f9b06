"""Tests for repro.core.state: states, spaces, mixed-radix codec."""

import pytest
from hypothesis import given, strategies as st

from repro.core.domains import EnumDomain, IntRange
from repro.core.state import State, StateSpace
from repro.core.variables import Var
from repro.errors import CapacityError, StateError

X = Var.shared("x", IntRange(0, 3))
B = Var.boolean("b")
P = Var("p", EnumDomain("p", ("a", "b", "c")))


class TestState:
    def test_mapping_protocol(self):
        s = State({X: 2, B: True})
        assert s[X] == 2
        assert len(s) == 2
        assert set(s) == {X, B}

    def test_domain_checked(self):
        from repro.errors import DomainError

        with pytest.raises(DomainError):
            State({X: 9})

    def test_updated_functional(self):
        s = State({X: 1, B: False})
        t = s.updated({X: 2})
        assert s[X] == 1 and t[X] == 2 and t[B] is False

    def test_updated_undeclared_rejected(self):
        s = State({X: 1})
        with pytest.raises(StateError):
            s.updated({B: True})

    def test_project(self):
        s = State({X: 1, B: True})
        assert set(s.project([X])) == {X}
        with pytest.raises(StateError):
            s.project([P])

    def test_equality_and_hash(self):
        assert State({X: 1, B: True}) == State({B: True, X: 1})
        assert hash(State({X: 1})) == hash(State({X: 1}))
        assert State({X: 1}) != State({X: 2})

    def test_repr_sorted(self):
        assert "x=1" in repr(State({X: 1, B: False}))


class TestStateSpace:
    def test_size(self):
        space = StateSpace([X, B, P])
        assert space.size == 4 * 2 * 3

    def test_duplicate_names_rejected(self):
        with pytest.raises(StateError):
            StateSpace([X, Var.shared("x", IntRange(0, 1))])

    def test_empty_rejected(self):
        with pytest.raises(StateError):
            StateSpace([])

    def test_too_large_constructs_but_refuses_dense(self):
        # Capacity moved from the constructor to the dense tier: the space
        # builds with an exact size, and only full-space materialization
        # raises (CapacityError, still a StateError for old except sites).
        vars_ = [Var.shared(f"v{i}", IntRange(0, 99)) for i in range(5)]
        space = StateSpace(vars_)
        assert space.size == 100**5
        with pytest.raises(StateError):
            space.var_arrays()
        with pytest.raises(CapacityError):
            space.index_arrays()
        with pytest.raises(CapacityError):
            next(space.iter_states())

    def test_roundtrip_exhaustive(self):
        space = StateSpace([X, B, P])
        for i in range(space.size):
            s = space.state_at(i)
            assert space.index_of(s) == i

    def test_last_var_varies_fastest(self):
        space = StateSpace([X, B])
        s0, s1 = space.state_at(0), space.state_at(1)
        assert s0[X] == s1[X]  # x unchanged
        assert s0[B] != s1[B]  # b toggled

    def test_index_out_of_range(self):
        space = StateSpace([X])
        with pytest.raises(StateError):
            space.state_at(4)
        with pytest.raises(StateError):
            space.state_at(-1)

    def test_missing_assignment(self):
        space = StateSpace([X, B])
        with pytest.raises(StateError):
            space.index_of(State({X: 0}))

    def test_var_named(self):
        space = StateSpace([X, B])
        assert space.var_named("b") is B
        with pytest.raises(StateError):
            space.var_named("nope")

    def test_var_arrays_decode(self):
        space = StateSpace([X, B])
        arrays = space.var_arrays()
        for i in range(space.size):
            s = space.state_at(i)
            assert arrays[X][i] == s[X]
            assert arrays[B][i] == s[B]

    def test_var_arrays_cached(self):
        space = StateSpace([X, B])
        assert space.var_arrays()[X] is space.var_arrays()[X]

    def test_stride_of_unknown_var(self):
        with pytest.raises(StateError):
            StateSpace([X]).stride_of(B)

    def test_iter_states_count(self):
        space = StateSpace([X, B])
        assert sum(1 for _ in space.iter_states()) == space.size

    @given(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    def test_random_shapes_roundtrip(self, radices):
        vars_ = [
            Var.shared(f"v{i}", IntRange(0, r - 1)) for i, r in enumerate(radices)
        ]
        space = StateSpace(vars_)
        # Check a sample of indices round-trip.
        step = max(1, space.size // 11)
        for i in range(0, space.size, step):
            assert space.index_of(space.state_at(i)) == i
