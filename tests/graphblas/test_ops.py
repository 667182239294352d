"""Tests for the GraphBLAS operation kernels, including reference-model
comparisons (brute force dict-of-elements semantics) under hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphblas as gb
from repro.graphblas import Matrix, Vector
from repro.graphblas import binaryops as bop
from repro.graphblas import monoids as mon
from repro.graphblas import semirings as sr
from repro.graphblas.descriptor import Descriptor, Mask


def ref_mxv_min_second(A: Matrix, u: Vector):
    """Brute-force (Select2nd, min) mxv: dict of output elements."""
    out = {}
    uvals, upres = u.dense_arrays()
    for i in range(A.nrows):
        cols, _ = A.row(i)
        cand = [uvals[j] for j in cols if upres[j]]
        if cand:
            out[i] = min(cand)
    return out


def as_dict(v: Vector):
    return dict(zip(*[arr.tolist() for arr in v.sparse_arrays()]))


class TestMxv:
    def path_graph(self, n=6):
        return Matrix.adjacency(n, np.arange(n - 1), np.arange(1, n))

    def test_dense_input(self):
        A = self.path_graph()
        f = Vector.iota(6)
        out = Vector.empty(6)
        gb.mxv(out, None, None, sr.SEL2ND_MIN_INT64, A, f)
        # each vertex sees min parent among neighbours
        np.testing.assert_array_equal(out.to_numpy(-1), [1, 0, 1, 2, 3, 4])

    def test_sparse_input_triggers_spmspv(self):
        A = self.path_graph(100)
        f = Vector.sparse(100, [50], [7])
        out = Vector.empty(100)
        gb.mxv(out, None, None, sr.SEL2ND_MIN_INT64, A, f)
        assert as_dict(out) == {49: 7, 51: 7}

    def test_spmv_and_spmspv_agree(self):
        rng = np.random.default_rng(42)
        A = Matrix.adjacency(30, rng.integers(0, 30, 60), rng.integers(0, 30, 60))
        vals = rng.integers(0, 30, 30)
        dense_u = Vector.dense(vals)
        # force both kernels on the same logical input
        from repro.graphblas.ops import _spmspv, _spmv

        i1, v1, f1, _ = _spmv(sr.SEL2ND_MIN_INT64, A, dense_u)
        i2, v2, f2, _ = _spmspv(sr.SEL2ND_MIN_INT64, A, dense_u)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(v1, v2)
        assert f1 == f2 == A.nvals  # both kernels touch every edge once

    def test_empty_input_vector(self):
        A = self.path_graph()
        out = Vector.sparse(6, [2], [99])
        gb.mxv(out, None, None, sr.SEL2ND_MIN_INT64, A, Vector.empty(6))
        assert out.nvals == 0  # unmasked write replaces everything

    def test_mask(self):
        A = self.path_graph()
        f = Vector.iota(6)
        mask = Vector.dense(np.array([True, True, False, False, False, False]))
        out = Vector.empty(6)
        gb.mxv(out, mask, None, sr.SEL2ND_MIN_INT64, A, f)
        assert as_dict(out) == {0: 1, 1: 0}

    def test_scmp_mask(self):
        A = self.path_graph()
        f = Vector.iota(6)
        mask = Vector.dense(np.ones(6, dtype=bool))
        out = Vector.sparse(6, [3], [77])
        gb.mxv(out, mask, None, sr.SEL2ND_MIN_INT64, A, f, gb.SCMP)
        # complement of all-true allows nothing: out untouched
        assert as_dict(out) == {3: 77}

    def test_structural_mask_counts_false_entries(self):
        A = self.path_graph()
        f = Vector.iota(6)
        mask = Vector.sparse(6, [2], [False])
        out = Vector.empty(6)
        desc = Descriptor(mask_structural=True)
        gb.mxv(out, mask, None, sr.SEL2ND_MIN_INT64, A, f, desc)
        assert as_dict(out) == {2: 1}

    def test_accumulator(self):
        A = self.path_graph()
        f = Vector.iota(6)
        out = Vector.sparse(6, [0, 2], [0, 0])
        gb.mxv(out, None, bop.MIN, sr.SEL2ND_MIN_INT64, A, f)
        # accum keeps existing 0s where smaller
        assert out.get(0) == 0 and out.get(2) == 0 and out.get(1) == 0

    def test_replace_clears_unmasked(self):
        A = self.path_graph()
        f = Vector.iota(6)
        mask = Vector.dense(np.array([True, False, False, False, False, False]))
        out = Vector.sparse(6, [5], [55])
        gb.mxv(out, mask, None, sr.SEL2ND_MIN_INT64, A, f, gb.REPLACE)
        assert as_dict(out) == {0: 1}

    def test_dimension_checks(self):
        A = self.path_graph()
        with pytest.raises(ValueError):
            gb.mxv(Vector.empty(6), None, None, sr.SEL2ND_MIN_INT64, A, Vector.empty(5))
        with pytest.raises(ValueError):
            gb.mxv(Vector.empty(5), None, None, sr.SEL2ND_MIN_INT64, A, Vector.empty(6))

    def test_plus_times_semiring(self):
        A = Matrix.from_edges(2, 3, [0, 0, 1], [0, 2, 1], [2.0, 3.0, 4.0])
        u = Vector.dense(np.array([1.0, 10.0, 100.0]))
        out = Vector.empty(2, np.float64)
        gb.mxv(out, None, None, sr.PLUS_TIMES_FP64, A, u)
        assert as_dict(out) == {0: 302.0, 1: 40.0}

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_against_reference_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 25))
        ne = int(rng.integers(0, 40))
        A = Matrix.adjacency(n, rng.integers(0, n, ne), rng.integers(0, n, ne))
        k = int(rng.integers(0, n + 1))
        idx = rng.choice(n, size=k, replace=False)
        u = Vector.sparse(n, idx, rng.integers(0, 100, k))
        out = Vector.empty(n)
        gb.mxv(out, None, None, sr.SEL2ND_MIN_INT64, A, u)
        assert as_dict(out) == ref_mxv_min_second(A, u)


class TestMxm:
    def test_plus_times_matches_scipy(self):
        rng = np.random.default_rng(1)
        A = Matrix.from_edges(5, 6, rng.integers(0, 5, 12), rng.integers(0, 6, 12), rng.random(12))
        B = Matrix.from_edges(6, 4, rng.integers(0, 6, 10), rng.integers(0, 4, 10), rng.random(10))
        C = gb.mxm(sr.PLUS_TIMES_FP64, A, B)
        expected = (A.to_scipy() @ B.to_scipy()).toarray()
        np.testing.assert_allclose(C.to_scipy().toarray(), expected)

    def test_generic_semiring(self):
        A = Matrix.from_edges(2, 2, [0, 1], [1, 0], [1, 1])
        B = Matrix.from_edges(2, 2, [0, 1], [0, 0], [5, 9])
        C = gb.mxm(sr.MIN_SECOND_INT64, A, B)
        # C[0,0] = min over k of B[k,0] where A[0,k] present -> B[1,0]=9
        r, c, v = C.extract_tuples()
        d = dict(zip(zip(r.tolist(), c.tolist()), v.tolist()))
        assert d == {(0, 0): 9, (1, 0): 5}

    def test_dimension_mismatch(self):
        A = Matrix.from_edges(2, 3, [], [])
        B = Matrix.from_edges(2, 3, [], [])
        with pytest.raises(ValueError):
            gb.mxm(sr.PLUS_TIMES_FP64, A, B)


class TestEwise:
    def test_mult_intersection(self):
        u = Vector.sparse(6, [1, 2, 3], [10, 20, 30])
        v = Vector.sparse(6, [2, 3, 4], [2, 3, 4])
        out = Vector.empty(6)
        gb.ewise_mult(out, None, None, bop.MIN, u, v)
        assert as_dict(out) == {2: 2, 3: 3}

    def test_mult_second_copies(self):
        u = Vector.sparse(6, [1, 2], [10, 20])
        v = Vector.sparse(6, [2], [99])
        out = Vector.empty(6)
        gb.ewise_mult(out, None, None, bop.SECOND, u, v)
        assert as_dict(out) == {2: 99}

    def test_mult_ne_bool_output(self):
        u = Vector.sparse(4, [0, 1], [5, 5])
        v = Vector.sparse(4, [0, 1], [5, 6])
        out = Vector.empty(4, np.bool_)
        gb.ewise_mult(out, None, None, bop.NE, u, v)
        assert as_dict(out) == {0: False, 1: True}

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            gb.ewise_mult(
                Vector.empty(3), None, None, bop.MIN, Vector.empty(3), Vector.empty(4)
            )

    def test_empty_operands(self):
        out = Vector.sparse(3, [0], [9])
        gb.ewise_mult(out, None, None, bop.MIN, Vector.empty(3), Vector.empty(3))
        assert out.nvals == 0

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=5000))
    def test_mult_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        ku, kv = rng.integers(0, n, 2)
        iu = rng.choice(n, ku, replace=False)
        iv = rng.choice(n, kv, replace=False)
        u = Vector.sparse(n, iu, rng.integers(0, 50, ku))
        v = Vector.sparse(n, iv, rng.integers(0, 50, kv))
        out = Vector.empty(n)
        gb.ewise_mult(out, None, None, bop.PLUS, u, v)
        du, dv = as_dict(u), as_dict(v)
        expected = {i: du[i] + dv[i] for i in set(du) & set(dv)}
        assert as_dict(out) == expected


class TestExtract:
    def test_extract_all(self):
        u = Vector.sparse(5, [1, 3], [10, 30])
        out = Vector.empty(5)
        gb.extract(out, None, None, u, None)
        assert as_dict(out) == {1: 10, 3: 30}

    def test_extract_by_indices(self):
        u = Vector.dense(np.arange(10) * 10)
        out = Vector.empty(3)
        gb.extract(out, None, None, u, [7, 0, 7])
        assert as_dict(out) == {0: 70, 1: 0, 2: 70}

    def test_extract_absent_elements_skipped(self):
        u = Vector.sparse(10, [2], [20])
        out = Vector.empty(4)
        gb.extract(out, None, None, u, [2, 3, 2, 5])
        assert as_dict(out) == {0: 20, 2: 20}

    def test_grandparent_idiom(self):
        # gf = f[f] — the paper's shortcut step
        f = Vector.dense(np.array([1, 2, 2, 0], dtype=np.int64))
        gf = Vector.empty(4)
        gb.extract(gf, None, None, f, f.to_numpy())
        np.testing.assert_array_equal(gf.to_numpy(), [2, 2, 2, 1])

    def test_size_validation(self):
        u = Vector.empty(5)
        with pytest.raises(ValueError):
            gb.extract(Vector.empty(3), None, None, u, [0, 1])
        with pytest.raises(IndexError):
            gb.extract(Vector.empty(1), None, None, u, [5])
        with pytest.raises(ValueError):
            gb.extract(Vector.empty(3), None, None, u, None)

    def test_extract_with_mask(self):
        u = Vector.dense(np.arange(4, dtype=np.int64))
        mask = Vector.dense(np.array([True, False, True, False]))
        out = Vector.empty(4)
        gb.extract(out, mask, None, u, [3, 2, 1, 0])
        assert as_dict(out) == {0: 3, 2: 1}


class TestAssign:
    def test_assign_vector(self):
        w = Vector.iota(6)
        u = Vector.sparse(2, [0, 1], [100, 200])
        gb.assign(w, None, None, u, [4, 1])
        np.testing.assert_array_equal(w.to_numpy(), [0, 200, 2, 3, 100, 5])

    def test_assign_sparse_u_region_takes_u_pattern(self):
        # Spec: C(I) = A replaces the subregion's pattern — positions named
        # by I where u stores nothing are deleted (no accumulator).
        w = Vector.iota(6)
        u = Vector.sparse(3, [1], [99])  # positions 0, 2 not stored
        gb.assign(w, None, None, u, [0, 3, 5])
        assert as_dict(w) == {1: 1, 2: 2, 3: 99, 4: 4}

    def test_assign_sparse_u_with_accum_keeps_region(self):
        # With an accumulator the region's old entries survive via Z = W ⊙ T.
        w = Vector.iota(6)
        u = Vector.sparse(3, [1], [1])
        gb.assign(w, None, bop.PLUS, u, [0, 3, 5])
        np.testing.assert_array_equal(w.to_numpy(), [0, 1, 2, 4, 4, 5])

    def test_assign_all(self):
        w = Vector.iota(3)
        gb.assign(w, None, None, Vector.sparse(3, [1], [9]), None)
        # GrB_ALL without replace: inside the (implicit full) mask w becomes u
        assert as_dict(w) == {1: 9}

    def test_assign_duplicate_targets_last_wins(self):
        w = Vector.empty(4)
        u = Vector.sparse(3, [0, 1, 2], [7, 8, 9])
        gb.assign(w, None, None, u, [2, 2, 2])
        assert as_dict(w) == {2: 9}

    def test_assign_scalar(self):
        w = Vector.empty(5, np.bool_)
        gb.assign_scalar(w, None, None, True, [0, 2])
        assert as_dict(w) == {0: True, 2: True}

    def test_assign_scalar_all(self):
        w = Vector.empty(3, np.bool_)
        gb.assign_scalar(w, None, None, True, None)
        assert w.nvals == 3

    def test_assign_scalar_masked(self):
        w = Vector.empty(4, np.int64)
        mask = Vector.dense(np.array([True, False, True, False]))
        gb.assign_scalar(w, mask, None, 5, [0, 1, 2, 3])
        assert as_dict(w) == {0: 5, 2: 5}

    def test_assign_preserves_untouched(self):
        w = Vector.sparse(5, [0, 4], [1, 2])
        gb.assign(w, None, None, Vector.sparse(1, [0], [9]), [2])
        assert as_dict(w) == {0: 1, 2: 9, 4: 2}

    def test_assign_size_validation(self):
        with pytest.raises(ValueError):
            gb.assign(Vector.empty(5), None, None, Vector.empty(2), [1])
        with pytest.raises(IndexError):
            gb.assign(Vector.empty(5), None, None, Vector.empty(1), [9])

    def test_hooking_idiom(self):
        """f[f_h] = f_n — scatter new parents onto star roots (Alg 3, l.12)."""
        f = Vector.iota(6)
        hooks = np.array([3, 5])      # roots being hooked
        newpar = np.array([0, 2])     # their new parents
        gb.assign(f, None, None, Vector.dense(newpar), hooks)
        np.testing.assert_array_equal(f.to_numpy(), [0, 1, 2, 0, 4, 2])


class TestApplySelectReduce:
    def test_reduce_matrix_rows(self):
        m = Matrix.from_edges(3, 3, [0, 0, 2], [0, 1, 2], [1.0, 2.0, 3.0])
        v = gb.reduce_matrix(mon.PLUS_FP64, m, axis=1)
        assert as_dict(v) == {0: 3.0, 2: 3.0}

    def test_reduce_matrix_cols(self):
        m = Matrix.from_edges(3, 3, [0, 1, 2], [1, 1, 2], [1.0, 2.0, 3.0])
        v = gb.reduce_matrix(mon.PLUS_FP64, m, axis=0)
        assert as_dict(v) == {1: 3.0, 2: 3.0}

    def test_reduce_matrix_bad_axis(self):
        m = Matrix.from_edges(2, 2, [], [])
        with pytest.raises(ValueError):
            gb.reduce_matrix(mon.PLUS_FP64, m, axis=2)


class TestMaskSemantics:
    def test_mask_size_mismatch(self):
        u = Vector.sparse(4, [0], [1])
        mask = Vector.dense(np.ones(3, dtype=bool))
        with pytest.raises(ValueError):
            gb.extract(Vector.empty(4), mask, None, u, None)

    def test_mask_object(self):
        u = Vector.sparse(4, [0, 1], [1, 2])
        m = Mask(Vector.sparse(4, [1], [True]), structural=True)
        out = Vector.empty(4)
        gb.extract(out, m, None, u, None)
        assert as_dict(out) == {1: 2}

    def test_mask_complement_via_mask_object(self):
        u = Vector.sparse(4, [0, 1], [1, 2])
        m = Mask(Vector.sparse(4, [1], [True]), structural=True, complement=True)
        out = Vector.empty(4)
        gb.extract(out, m, None, u, None)
        assert as_dict(out) == {0: 1}

    def test_descriptor_flips_mask_object(self):
        u = Vector.sparse(4, [0, 1], [1, 2])
        m = Mask(Vector.sparse(4, [1], [True]), structural=True)
        out = Vector.empty(4)
        gb.extract(out, m, None, u, None, gb.SCMP)
        assert as_dict(out) == {0: 1}

    def test_value_mask_ignores_false(self):
        u = Vector.dense(np.arange(3, dtype=np.int64))
        mask = Vector.sparse(3, [0, 1], [True, False])
        out = Vector.empty(3)
        gb.extract(out, mask, None, u, None)
        assert as_dict(out) == {0: 0}

    def test_invalid_mask_type(self):
        with pytest.raises(TypeError):
            gb.extract(Vector.empty(3), "nope", None, Vector.empty(3), None)
