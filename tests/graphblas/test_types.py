"""Tests for repro.graphblas.types."""

import numpy as np
import pytest

from repro.graphblas import types as t


class TestNormalizeDtype:
    def test_python_int(self):
        assert t.normalize_dtype(int) == t.INT64

    def test_python_float(self):
        assert t.normalize_dtype(float) == t.FP64

    def test_python_bool(self):
        assert t.normalize_dtype(bool) == t.BOOL

    def test_string(self):
        assert t.normalize_dtype("int64") == t.INT64
        assert t.normalize_dtype("float32") == t.FP32

    def test_numpy_dtype_passthrough(self):
        assert t.normalize_dtype(np.dtype(np.int32)) == t.INT32

    def test_rejects_complex(self):
        with pytest.raises(TypeError):
            t.normalize_dtype(np.complex128)

    def test_rejects_object(self):
        with pytest.raises(TypeError):
            t.normalize_dtype(object)

    def test_rejects_int8(self):
        with pytest.raises(TypeError):
            t.normalize_dtype(np.int8)


class TestPromote:
    def test_same_type(self):
        assert t.promote(t.INT64, t.INT64) == t.INT64

    def test_bool_bool(self):
        assert t.promote(t.BOOL, t.BOOL) == t.BOOL

    def test_int_float(self):
        assert t.promote(t.INT64, t.FP64) == t.FP64

    def test_int32_int64(self):
        assert t.promote(t.INT32, t.INT64) == t.INT64

    def test_bool_int(self):
        assert t.promote(t.BOOL, t.INT64) == t.INT64

    def test_fp32_fp64(self):
        assert t.promote(t.FP32, t.FP64) == t.FP64

