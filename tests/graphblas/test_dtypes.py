"""Dtype handling across the GraphBLAS layer: promotion, casting, and
bool/int/float interop in ops."""

import numpy as np
import pytest

import repro.graphblas as gb
from repro.graphblas import Matrix, Vector
from repro.graphblas import binaryops as bop
from repro.graphblas import monoids as mon
from repro.graphblas import semirings as sr


class TestVectorDtypes:
    @pytest.mark.parametrize("dtype", [np.bool_, np.int32, np.int64, np.float32, np.float64])
    def test_construction_all_types(self, dtype):
        v = Vector.sparse(5, [1, 3], [1, 0], dtype=dtype)
        assert v.dtype == np.dtype(dtype)
        assert v.nvals == 2  # explicit zeros are stored elements

    def test_explicit_zero_is_stored(self):
        """GraphBLAS distinguishes stored-zero from absent."""
        v = Vector.sparse(3, [1], [0])
        assert v.nvals == 1
        assert v.get(1) == 0

    def test_bool_vector_values(self):
        v = Vector.sparse(4, [0, 1], [True, False], dtype=np.bool_)
        # a False value is still a stored element (structural vs value)
        assert v.nvals == 2


class TestOpPromotion:
    def test_int_float_ewise(self):
        a = Vector.sparse(3, [0], [2], dtype=np.int64)
        b = Vector.sparse(3, [0], [0.5], dtype=np.float64)
        out = Vector.empty(3, np.float64)
        gb.ewise_mult(out, None, None, bop.PLUS, a, b)
        assert out.get(0) == 2.5

    def test_bool_int_promotes(self):
        a = Vector.sparse(3, [0], [True], dtype=np.bool_)
        b = Vector.sparse(3, [0], [5], dtype=np.int64)
        out = Vector.empty(3, np.int64)
        gb.ewise_mult(out, None, None, bop.PLUS, a, b)
        assert out.get(0) == 6

    def test_comparison_yields_bool(self):
        a = Vector.sparse(3, [0, 1], [1, 2], dtype=np.int64)
        b = Vector.sparse(3, [0, 1], [1, 9], dtype=np.int64)
        out = Vector.empty(3, np.bool_)
        gb.ewise_mult(out, None, None, bop.LT, a, b)
        assert out.get(0) == False and out.get(1) == True  # noqa: E712

    def test_float_semiring_over_bool_matrix(self):
        """LACC's adjacency is bool; MCL multiplies it with floats."""
        A = Matrix.adjacency(3, [0, 1], [1, 2])
        u = Vector.dense(np.array([0.5, 1.5, 2.5]))
        out = Vector.empty(3, np.float64)
        gb.mxv(out, None, None, sr.PLUS_TIMES_FP64, A, u)
        assert out.get(0) == 1.5  # 1 * u[1]
        assert out.get(1) == 3.0  # u[0] + u[2]

    def test_assign_casts_to_output_dtype(self):
        w = Vector.empty(3, np.int64)
        gb.assign(w, None, None, Vector.sparse(1, [0], [2.9], dtype=np.float64), [1])
        assert w.get(1) == 2  # cast into int64 output
        assert w.dtype == np.int64


class TestMonoidDtypes:
    def test_int32_min_identity(self):
        m = mon.monoid_for("min", np.int32)
        assert m.identity == np.iinfo(np.int32).max

    def test_float_min_identity_is_inf(self):
        m = mon.monoid_for("min", np.float64)
        assert m.identity == np.inf

    def test_reduce_preserves_float(self):
        v = Vector.sparse(4, [0, 1], [0.25, 0.5], dtype=np.float64)
        _, vals = v.sparse_arrays()
        assert mon.PLUS_FP64.reduce(vals) == 0.75

    def test_semiring_factory_int32(self):
        s = gb.semirings.semiring("min", "second", np.int32)
        assert s.add.dtype == np.int32
