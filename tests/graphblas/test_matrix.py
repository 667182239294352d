"""Tests for Matrix (CSR) and DCSC storage."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphblas import DCSC, Matrix


def small_matrix():
    #     0  1  2
    # 0 [ .  5  . ]
    # 1 [ 2  .  3 ]
    # 2 [ .  .  7 ]
    return Matrix.from_edges(3, 3, [0, 1, 1, 2], [1, 0, 2, 2], [5, 2, 3, 7])


class TestConstruction:
    def test_from_edges(self):
        m = small_matrix()
        assert m.shape == (3, 3) and m.nvals == 4

    def test_from_edges_scalar_values(self):
        m = Matrix.from_edges(2, 2, [0, 1], [1, 0], values=True)
        assert m.dtype == np.bool_

    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError):
            Matrix.from_edges(-1, 3, [], [])

    def test_out_of_range_edge(self):
        with pytest.raises(IndexError):
            Matrix.from_edges(2, 2, [2], [0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Matrix.from_edges(3, 3, [0, 1], [0])

    def test_dedup_last(self):
        m = Matrix.from_edges(2, 2, [0, 0], [1, 1], [5, 9])
        assert m.nvals == 1
        _, vals = m.row(0)
        assert vals[0] == 9

    def test_dedup_min(self):
        m = Matrix.from_edges(2, 2, [0, 0], [1, 1], [5, 3], dedup="min")
        _, vals = m.row(0)
        assert vals[0] == 3

    def test_dedup_plus(self):
        m = Matrix.from_edges(2, 2, [0, 0], [1, 1], [5, 3], dedup="plus")
        _, vals = m.row(0)
        assert vals[0] == 8

    def test_dedup_error(self):
        with pytest.raises(ValueError):
            Matrix.from_edges(2, 2, [0, 0], [1, 1], [5, 3], dedup="error")

    def test_dedup_preserves_integer_dtype(self):
        # regression: the dedup path used to round-trip values through a
        # float64 scipy COO, silently degrading integer matrices — values
        # above 2^53 would lose precision
        big = 2**60 + 1
        m = Matrix.from_edges(
            2, 2, [0, 0], [1, 1], np.array([big, 2], dtype=np.int64), dedup="plus"
        )
        assert m.dtype == np.int64
        _, vals = m.row(0)
        assert vals[0] == big + 2

    def test_dedup_preserves_dtype_all_modes(self):
        for mode, want in [("min", 3), ("plus", 8), ("last", 3)]:
            m = Matrix.from_edges(
                2, 2, [0, 0], [1, 1], np.array([5, 3], dtype=np.int32), dedup=mode
            )
            assert m.dtype == np.int32, mode
            _, vals = m.row(0)
            assert vals[0] == want, mode

    def test_empty_matrix(self):
        m = Matrix.from_edges(4, 4, [], [])
        assert m.nvals == 0
        idx, vals = m.row(2)
        assert idx.size == 0


class TestAdjacency:
    def test_symmetrizes(self):
        a = Matrix.adjacency(3, [0], [1])
        assert a.nvals == 2
        cols0, _ = a.row(0)
        cols1, _ = a.row(1)
        assert list(cols0) == [1] and list(cols1) == [0]

    def test_drops_self_loops(self):
        a = Matrix.adjacency(3, [0, 1], [0, 2])
        assert a.nvals == 2  # only 1-2 both directions

    def test_duplicate_edges_collapse(self):
        a = Matrix.adjacency(3, [0, 0, 1], [1, 1, 0])
        assert a.nvals == 2

    def test_is_symmetric_flag(self):
        a = Matrix.adjacency(4, [0, 1], [1, 2])
        assert a.is_symmetric

    def test_is_symmetric_detected(self):
        m = Matrix.from_edges(2, 2, [0, 1], [1, 0], [1, 1])
        assert m.is_symmetric
        m2 = Matrix.from_edges(2, 2, [0], [1], [1])
        assert not m2.is_symmetric


class TestAccess:
    def test_row(self):
        m = small_matrix()
        cols, vals = m.row(1)
        np.testing.assert_array_equal(cols, [0, 2])
        np.testing.assert_array_equal(vals, [2, 3])

    def test_row_degrees(self):
        m = small_matrix()
        np.testing.assert_array_equal(m.row_degrees(), [1, 2, 1])

    def test_csc_arrays(self):
        m = small_matrix()
        indptr, rows, vals = m.csc_arrays()
        # column 2 holds rows 1 (val 3) and 2 (val 7)
        lo, hi = indptr[2], indptr[3]
        np.testing.assert_array_equal(rows[lo:hi], [1, 2])
        np.testing.assert_array_equal(vals[lo:hi], [3, 7])

    def test_csc_of_symmetric_is_csr(self):
        a = Matrix.adjacency(4, [0, 1, 2], [1, 2, 3])
        indptr, rows, vals = a.csc_arrays()
        assert indptr is a.indptr and rows is a.indices

    def test_transpose(self):
        m = small_matrix()
        t = m.transpose()
        cols, vals = t.row(0)
        np.testing.assert_array_equal(cols, [1])
        np.testing.assert_array_equal(vals, [2])

    def test_transpose_of_symmetric_is_self(self):
        a = Matrix.adjacency(4, [0, 1], [1, 2])
        assert a.transpose() is a

    def test_extract_tuples(self):
        m = small_matrix()
        r, c, v = m.extract_tuples()
        np.testing.assert_array_equal(r, [0, 1, 1, 2])
        np.testing.assert_array_equal(c, [1, 0, 2, 2])
        np.testing.assert_array_equal(v, [5, 2, 3, 7])

    def test_isequal(self):
        assert small_matrix().isequal(small_matrix())
        assert not small_matrix().isequal(Matrix.from_edges(3, 3, [0], [0], [1]))


def dcsc_of(m):
    """The DCSC of a CSR matrix, built from its COO triples."""
    return DCSC.from_coo(m.nrows, m.ncols, *m.extract_tuples())


class TestDCSC:
    def test_from_matrix_roundtrip(self):
        m = small_matrix()
        d = dcsc_of(m)
        assert d.nvals == m.nvals
        assert d.to_matrix().isequal(m)

    def test_nzc_counts_nonempty_columns(self):
        m = Matrix.from_edges(5, 100, [0, 1, 2], [3, 3, 90], [1, 1, 1])
        d = dcsc_of(m)
        np.testing.assert_array_equal(d.jc, [3, 90])  # only non-empty columns

    def test_column_present(self):
        d = dcsc_of(small_matrix())
        rows, vals, _ = d.columns_of(np.array([2]))
        np.testing.assert_array_equal(rows, [1, 2])
        np.testing.assert_array_equal(vals, [3, 7])

    def test_column_absent(self):
        m = Matrix.from_edges(3, 10, [0], [5], [1])
        d = dcsc_of(m)
        rows, vals, _ = d.columns_of(np.array([4]))
        assert rows.size == 0

    def test_columns_of_gather(self):
        d = dcsc_of(small_matrix())
        rows, vals, src = d.columns_of(np.array([0, 2]))
        # col 0 -> row 1 (val 2); col 2 -> rows 1,2 (vals 3,7)
        np.testing.assert_array_equal(rows, [1, 1, 2])
        np.testing.assert_array_equal(vals, [2, 3, 7])
        np.testing.assert_array_equal(src, [0, 1, 1])

    def test_columns_of_all_absent(self):
        m = Matrix.from_edges(3, 10, [0], [5], [1])
        d = dcsc_of(m)
        rows, vals, src = d.columns_of(np.array([0, 9]))
        assert rows.size == 0 and src.size == 0

    def test_columns_of_empty_request(self):
        d = dcsc_of(small_matrix())
        rows, _, src = d.columns_of(np.array([], dtype=np.int64))
        assert rows.size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DCSC(2, 2, np.array([0]), np.array([0]), np.array([0]), np.array([1]))

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=200))
    def test_roundtrip_random(self, seed):
        rng = np.random.default_rng(seed)
        nnz = rng.integers(0, 40)
        rows = rng.integers(0, 12, nnz)
        cols = rng.integers(0, 15, nnz)
        vals = rng.integers(1, 100, nnz)
        m = Matrix.from_edges(12, 15, rows, cols, vals)
        d = dcsc_of(m)
        assert d.to_matrix().isequal(m)
        # columns_of over all columns reproduces every entry
        r, v, src = d.columns_of(np.arange(15))
        assert r.size == m.nvals
