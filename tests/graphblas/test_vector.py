"""Tests for repro.graphblas.vector.Vector — both storage modes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphblas import Vector
from repro.graphblas.vector import _DENSIFY_AT


def both_modes(v):
    """Return (sparse-mode copy, dense-mode copy) of the same logical vector."""
    idx, vals = v.sparse_arrays()
    s = Vector(v.size, v.dtype)
    s._set_sparse(idx.copy(), vals.copy())
    s._mode = "sparse"  # force regardless of density hysteresis
    s._indices, s._values = idx.copy(), vals.copy()
    s._present = None
    dvals, dpres = v.dense_arrays()
    d = Vector(v.size, v.dtype)
    d._mode = "dense"
    d._values, d._present = dvals.copy(), dpres.copy()
    d._indices = None
    return s, d


class TestConstruction:
    def test_empty(self):
        v = Vector.empty(5)
        assert v.size == 5 and v.nvals == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Vector(-1)

    def test_zero_size(self):
        v = Vector.empty(0)
        assert v.nvals == 0 and v.density == 0.0

    def test_sparse_basic(self):
        v = Vector.sparse(10, [3, 7], [30, 70])
        assert v.nvals == 2
        assert v.get(3) == 30 and v.get(7) == 70 and v.get(0) is None

    def test_sparse_scalar_broadcast(self):
        v = Vector.sparse(10, [1, 2, 3], True)
        assert v.nvals == 3 and v.get(2) is True

    def test_sparse_unsorted_input_sorted(self):
        v = Vector.sparse(10, [7, 3, 5], [1, 2, 3])
        idx, vals = v.sparse_arrays()
        np.testing.assert_array_equal(idx, [3, 5, 7])
        np.testing.assert_array_equal(vals, [2, 3, 1])

    def test_sparse_out_of_range(self):
        with pytest.raises(IndexError):
            Vector.sparse(5, [5], [1])
        with pytest.raises(IndexError):
            Vector.sparse(5, [-1], [1])

    def test_sparse_shape_mismatch(self):
        with pytest.raises(ValueError):
            Vector.sparse(5, [1, 2], [1])

    def test_dedup_last(self):
        v = Vector.sparse(5, [2, 2, 2], [1, 5, 3])
        assert v.get(2) == 3

    def test_dedup_min(self):
        v = Vector.sparse(5, [2, 2, 2], [4, 1, 3], dedup="min")
        assert v.get(2) == 1

    def test_dedup_plus(self):
        v = Vector.sparse(5, [2, 2], [4, 1], dedup="plus")
        assert v.get(2) == 5

    def test_dedup_error(self):
        with pytest.raises(ValueError):
            Vector.sparse(5, [2, 2], [4, 1], dedup="error")

    def test_dense(self):
        v = Vector.dense(np.array([1.0, 2.0, 3.0]))
        assert v.nvals == 3 and v.dtype == np.float64

    def test_dense_with_present(self):
        v = Vector.dense(np.arange(4), present=np.array([True, False, True, False]))
        assert v.nvals == 2 and v.get(1) is None

    def test_full(self):
        v = Vector.full(4, 9)
        np.testing.assert_array_equal(v.to_numpy(), [9, 9, 9, 9])

    def test_iota(self):
        v = Vector.iota(5)
        np.testing.assert_array_equal(v.to_numpy(), np.arange(5))
        assert v.mode == "dense"


class TestModeSwitching:
    def test_dense_build_stays_dense(self):
        assert Vector.full(100, 1).mode == "dense"

    def test_sparse_build_stays_sparse(self):
        v = Vector.sparse(1000, [5], [1])
        assert v.mode == "sparse"

    def test_sparse_densifies_above_threshold(self):
        n = 100
        k = int(n * _DENSIFY_AT) + 1
        v = Vector.sparse(n, np.arange(k), np.ones(k, dtype=np.int64))
        assert v.mode == "dense"

    def test_dense_sparsifies_after_removals(self):
        v = Vector.full(1000, 1)
        for i in range(3, 1000):
            v.remove(i)
        assert v.mode == "sparse" and v.nvals == 3

    def test_behaviour_identical_across_modes(self):
        v = Vector.sparse(50, [1, 9, 20], [5, -3, 8])
        s, d = both_modes(v)
        assert s.isequal(d)
        assert s.nvals == d.nvals == 3
        for i in (0, 1, 9, 20, 49):
            assert s.get(i) == d.get(i)


class TestElementAccess:
    def test_set_new_element_sparse(self):
        v = Vector.sparse(10, [2], [20])
        v.set(5, 50)
        assert v.get(5) == 50 and v.nvals == 2

    def test_set_overwrites(self):
        v = Vector.sparse(10, [2], [20])
        v.set(2, 99)
        assert v.get(2) == 99 and v.nvals == 1

    def test_set_dense_mode(self):
        v = Vector.full(5, 0)
        v.set(3, 7)
        assert v.get(3) == 7

    def test_get_out_of_range(self):
        with pytest.raises(IndexError):
            Vector.empty(3).get(3)

    def test_set_out_of_range(self):
        with pytest.raises(IndexError):
            Vector.empty(3).set(-1, 0)

    def test_remove_sparse(self):
        v = Vector.sparse(10, [2, 5], [1, 2])
        v.remove(2)
        assert v.get(2) is None and v.nvals == 1

    def test_remove_absent_is_noop(self):
        v = Vector.sparse(10, [2], [1])
        v.remove(7)
        assert v.nvals == 1

    def test_clear(self):
        v = Vector.full(5, 1)
        v.clear()
        assert v.nvals == 0 and v.mode == "sparse"

    def test_extract_tuples_returns_copies(self):
        v = Vector.sparse(10, [1, 3], [10, 30])
        idx, vals = v.extract_tuples()
        idx[0] = 99
        assert v.get(1) == 10
        np.testing.assert_array_equal(v.extract_tuples()[0], [1, 3])


class TestConversions:
    def test_to_numpy_fill(self):
        v = Vector.sparse(4, [1], [7])
        np.testing.assert_array_equal(v.to_numpy(fill=-1), [-1, 7, -1, -1])

    def test_isequal_same(self):
        a = Vector.sparse(5, [1, 2], [1, 2])
        b = Vector.sparse(5, [1, 2], [1, 2])
        assert a.isequal(b)

    def test_isequal_across_dtypes(self):
        a = Vector.sparse(5, [1], [1], dtype=np.int64)
        b = Vector.sparse(5, [1], [1.0], dtype=np.float64)
        assert a.isequal(b)

    def test_isequal_different_pattern(self):
        a = Vector.sparse(5, [1], [1])
        b = Vector.sparse(5, [2], [1])
        assert not a.isequal(b)

    def test_isequal_different_value(self):
        a = Vector.sparse(5, [1], [1])
        b = Vector.sparse(5, [1], [2])
        assert not a.isequal(b)

    def test_isequal_different_size(self):
        assert not Vector.empty(4).isequal(Vector.empty(5))

    def test_iteration(self):
        v = Vector.sparse(5, [3, 1], [30, 10])
        assert list(v) == [(1, 10), (3, 30)]

    def test_len(self):
        assert len(Vector.empty(7)) == 7


class TestHypothesis:
    @settings(max_examples=50)
    @given(
        st.integers(min_value=1, max_value=200).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=n - 1),
                        st.integers(min_value=-1000, max_value=1000),
                    ),
                    max_size=50,
                ),
            )
        )
    )
    def test_build_matches_dict_semantics(self, case):
        """Vector.sparse with keep-last dedup == building a dict then reading."""
        n, pairs = case
        expected = {}
        for i, x in pairs:
            expected[i] = x
        idx = [i for i, _ in pairs]
        vals = [x for _, x in pairs]
        v = Vector.sparse(n, idx, vals)
        assert v.nvals == len(expected)
        for i, x in expected.items():
            assert v.get(i) == x

    @settings(max_examples=30)
    @given(
        st.lists(st.integers(min_value=0, max_value=99), unique=True, max_size=60)
    )
    def test_sparse_dense_roundtrip(self, indices):
        v = Vector.sparse(100, indices, np.arange(len(indices), dtype=np.int64))
        dvals, dpres = v.dense_arrays()
        rebuilt = Vector.dense(dvals, dpres)
        assert rebuilt.isequal(v)

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=49), unique=True, max_size=50))
    def test_present_array_matches_pattern(self, indices):
        v = Vector.sparse(50, indices, np.ones(len(indices), dtype=np.int64))
        present = v.present_array()
        assert set(np.flatnonzero(present)) == set(indices)
