"""Tests for the matrix variants of GraphBLAS operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphblas as gb
from repro.graphblas import Matrix
from repro.graphblas import binaryops as bop


def sample():
    #     0    1    2
    # 0 [ .   2.0   . ]
    # 1 [ 4.0  .   6.0]
    # 2 [ .    .   9.0]
    return Matrix.from_edges(
        3, 3, [0, 1, 1, 2], [1, 0, 2, 2], [2.0, 4.0, 6.0, 9.0]
    )


def as_dict(m):
    r, c, v = m.extract_tuples()
    return dict(zip(zip(r.tolist(), c.tolist()), v.tolist()))


class TestApplySelect:
    def test_apply_squares(self):
        out = gb.matrix_apply(lambda x: x * x, sample())
        assert as_dict(out) == {(0, 1): 4.0, (1, 0): 16.0, (1, 2): 36.0, (2, 2): 81.0}

    def test_apply_pattern_unchanged(self):
        A = sample()
        out = gb.matrix_apply(np.sqrt, A)
        assert np.array_equal(out.indptr, A.indptr)
        assert np.array_equal(out.indices, A.indices)

    def test_apply_shape_check(self):
        with pytest.raises(ValueError):
            gb.matrix_apply(lambda x: x[:1], sample())

    def test_select_threshold(self):
        out = gb.matrix_select(lambda i, j, x: x >= 5, sample())
        assert as_dict(out) == {(1, 2): 6.0, (2, 2): 9.0}

    def test_select_by_position(self):
        out = gb.matrix_select(lambda i, j, x: i == j, sample())
        assert as_dict(out) == {(2, 2): 9.0}

    def test_select_shape_check(self):
        with pytest.raises(ValueError):
            gb.matrix_select(lambda i, j, x: np.array([True]), sample())

    def test_select_everything_empty(self):
        out = gb.matrix_select(lambda i, j, x: x < 0, sample())
        assert out.nvals == 0


class TestEwise:
    def test_add_union(self):
        A = sample()
        B = Matrix.from_edges(3, 3, [0, 0], [0, 1], [1.0, 1.0])
        out = gb.matrix_ewise_add(bop.PLUS, A, B)
        d = as_dict(out)
        assert d[(0, 0)] == 1.0 and d[(0, 1)] == 3.0 and d[(2, 2)] == 9.0

    def test_with_monoid_argument(self):
        from repro.graphblas import monoids as mon

        A = sample()
        out = gb.matrix_ewise_add(mon.MIN_FP64, A, A)
        assert as_dict(out) == as_dict(A)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gb.matrix_ewise_add(bop.PLUS, sample(), Matrix.from_edges(2, 3, [], []))

    def test_empty_operand(self):
        empty = Matrix.from_edges(3, 3, [], [])
        out = gb.matrix_ewise_add(bop.PLUS, sample(), empty)
        assert out.nvals == sample().nvals

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=5000))
    def test_add_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        def rand():
            k = int(rng.integers(0, 20))
            return Matrix.from_edges(
                6, 6, rng.integers(0, 6, k), rng.integers(0, 6, k),
                rng.random(k).round(3), dedup="plus",
            )
        A, B = rand(), rand()
        out = gb.matrix_ewise_add(bop.PLUS, A, B)
        expected = (A.to_scipy() + B.to_scipy()).toarray()
        np.testing.assert_allclose(out.to_scipy().toarray(), expected)


class TestScaling:
    def test_scale_columns(self):
        out = gb.matrix_scale_columns(sample(), np.array([1.0, 0.5, 2.0]))
        assert as_dict(out) == {(0, 1): 1.0, (1, 0): 4.0, (1, 2): 12.0, (2, 2): 18.0}

    def test_scale_size_validation(self):
        with pytest.raises(ValueError):
            gb.matrix_scale_columns(sample(), np.ones(2))

    def test_column_normalisation_idiom(self):
        """MCL's stochastic normalisation via reduce + scale."""
        from repro.graphblas import monoids as mon

        A = sample()
        sums = gb.reduce_matrix(mon.PLUS_FP64, A, axis=0).to_numpy(fill=1.0)
        out = gb.matrix_scale_columns(A, 1.0 / sums)
        new_sums = gb.reduce_matrix(mon.PLUS_FP64, out, axis=0)
        for j, s in new_sums:
            assert s == pytest.approx(1.0)


class TestConstructors:
    def test_diagonal(self):
        d = gb.diagonal(np.array([1.0, 2.0, 3.0]))
        assert as_dict(d) == {(0, 0): 1.0, (1, 1): 2.0, (2, 2): 3.0}

    def test_identity(self):
        i = gb.identity(4)
        assert i.nvals == 4
        u = gb.Vector.dense(np.arange(4, dtype=np.float64))
        out = gb.Vector.empty(4, np.float64)
        gb.mxv(out, None, None, gb.semirings.PLUS_TIMES_FP64, i, u)
        np.testing.assert_array_equal(out.to_numpy(), np.arange(4))

    def test_transpose_function(self):
        t = gb.transpose(sample())
        assert as_dict(t) == {(1, 0): 2.0, (0, 1): 4.0, (2, 1): 6.0, (2, 2): 9.0}
