"""Matrix variants of the element-wise GraphBLAS operations.

LACC itself only reads its (immutable) adjacency matrix through ``mxv``,
but the surrounding applications — Markov clustering's inflation/pruning,
graph preprocessing, the test-suite's reference constructions — need the
matrix forms of ``apply``, ``select``, ``eWiseAdd``, column scaling and
diagonal construction.  These are unmasked, no-accumulator variants (the
GraphBLAS full write semantics are implemented for vectors in
:mod:`repro.graphblas.ops`; matrices here are value-producing, fitting
their immutable role in this library).
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

from .binaryop import BinaryOp
from .matrix import Matrix
from .monoid import Monoid
from .types import promote

__all__ = [
    "matrix_apply",
    "matrix_select",
    "matrix_ewise_add",
    "matrix_scale_columns",
    "diagonal",
    "identity",
    "transpose",
]


def matrix_apply(fn: Callable[[np.ndarray], np.ndarray], A: Matrix) -> Matrix:
    """``GrB_apply``: map *fn* over the stored values (pattern unchanged).

    MCL's inflation step is ``matrix_apply(lambda x: x**r, M)``.
    """
    vals = np.asarray(fn(A.values))
    if vals.shape != A.values.shape:
        raise ValueError("apply fn must be elementwise (shape-preserving)")
    return Matrix(A.nrows, A.ncols, A.indptr.copy(), A.indices.copy(), vals)


def matrix_select(
    keep: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray], A: Matrix
) -> Matrix:
    """``GxB_select``: keep entries where ``keep(rows, cols, values)``.

    MCL's threshold pruning is
    ``matrix_select(lambda i, j, x: x >= eps, M)``.
    """
    rows, cols, vals = A.extract_tuples()
    sel = np.asarray(keep(rows, cols, vals), dtype=bool)
    if sel.shape != vals.shape:
        raise ValueError("select predicate must return one bool per entry")
    return Matrix.from_edges(A.nrows, A.ncols, rows[sel], cols[sel], vals[sel])


def matrix_ewise_add(op: Union[BinaryOp, Monoid], A: Matrix, B: Matrix) -> Matrix:
    """``GrB_eWiseAdd`` (matrix): *op* on the union of patterns."""
    from scipy import sparse as sp

    if isinstance(op, Monoid):
        op = op.op
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {B.shape}")
    out_dtype = np.bool_ if op.bool_result else promote(A.dtype, B.dtype)
    sa = A.to_scipy().astype(np.float64)
    sb = B.to_scipy().astype(np.float64)
    # pattern bookkeeping via scipy, values recomputed with the op
    ra, ca, va = sp.find(sa)
    rb, cb, vb = sp.find(sb)
    keys_a = ra * A.ncols + ca
    keys_b = rb * A.ncols + cb
    common, ia, ib = np.intersect1d(keys_a, keys_b, return_indices=True)
    only_a = np.setdiff1d(np.arange(keys_a.size), ia)
    only_b = np.setdiff1d(np.arange(keys_b.size), ib)
    return Matrix.from_edges(
        A.nrows,
        A.ncols,
        np.concatenate([common // A.ncols, ra[only_a], rb[only_b]]).astype(np.int64),
        np.concatenate([common % A.ncols, ca[only_a], cb[only_b]]).astype(np.int64),
        np.concatenate(
            [np.asarray(op(va[ia], vb[ib])), va[only_a], vb[only_b]]
        ).astype(out_dtype),
    )


def matrix_scale_columns(A: Matrix, scale: np.ndarray) -> Matrix:
    """``A[:, j] *= scale[j]`` — MCL's column normalisation building block."""
    scale = np.asarray(scale, dtype=np.float64)
    if scale.shape != (A.ncols,):
        raise ValueError(f"scale must have {A.ncols} entries")
    vals = A.values.astype(np.float64) * scale[A.indices]
    return Matrix(A.nrows, A.ncols, A.indptr.copy(), A.indices.copy(), vals)


def diagonal(values: np.ndarray) -> Matrix:
    """Square matrix with *values* on the diagonal (zeros NOT dropped —
    the stored pattern is all n positions, like ``GrB_Matrix_diag``)."""
    values = np.asarray(values)
    n = values.size
    idx = np.arange(n, dtype=np.int64)
    return Matrix(n, n, np.arange(n + 1, dtype=np.int64), idx.copy(), values.copy())


def identity(n: int, dtype=np.float64) -> Matrix:
    """The n×n identity."""
    return diagonal(np.ones(n, dtype=dtype))


def transpose(A: Matrix) -> Matrix:
    """``GrB_transpose`` (alias of :meth:`Matrix.transpose`)."""
    return A.transpose()
