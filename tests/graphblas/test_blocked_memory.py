"""Memory bound of the row-blocked SpMV passes in ``kernels._numpy``.

``spmv``, ``spmv_rows`` and ``spmv_rows_minmax`` stream the matrix in
row-aligned blocks of at most ``_numpy.ROW_BLOCK_ENTRIES`` stored entries,
so none of their temporaries grows with nnz: the heap peak of one call is a
few block-sized buffers plus the O(nrows) outputs.  On a deterministic
matrix of 2,097,152 entries over 32,768 rows, each call's ``tracemalloc``
peak must stay under a quarter of ``nnz × 8`` bytes (one int64 per stored
entry) — a whole-matrix gather alone is four times that.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.graphblas import Matrix, Vector
from repro.graphblas import semirings as sr
from repro.graphblas.kernels import _numpy

NROWS = 1 << 15
ROW_LENGTH = 64


@pytest.fixture(scope="module")
def A() -> Matrix:
    """Every row holds 64 distinct columns, spread over the whole range."""
    r = np.arange(NROWS, dtype=np.int64)[:, None]
    cols = np.sort((r * 37 + np.arange(ROW_LENGTH) * 509) % NROWS, axis=1)
    indptr = np.arange(NROWS + 1, dtype=np.int64) * ROW_LENGTH
    indices = cols.ravel()
    A = Matrix(NROWS, NROWS, indptr, indices, np.ones(indices.size, dtype=bool))
    assert A.nvals > 2_000_000
    return A


@pytest.fixture(scope="module")
def inputs():
    """Vectors are built here, outside the traced calls."""
    rng = np.random.default_rng(7)
    vals = rng.integers(0, NROWS, NROWS)
    some = rng.random(NROWS) < 0.5
    return {
        "vals": vals,
        "some": some,
        "u_all": Vector.dense(vals),
        "u_some": Vector.dense(vals, present=some),
        "rows_sel": np.flatnonzero(rng.random(NROWS) < 0.5),
    }


def peak_bytes(fn) -> int:
    fn()  # warm the matrix's cached auxiliaries
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MIN = sr.SEL2ND_MIN_INT64
CALLS = {
    "spmv_all_present": lambda A, x: _numpy.spmv(MIN, A, x["u_all"]),
    "spmv_some_absent": lambda A, x: _numpy.spmv(MIN, A, x["u_some"]),
    "spmv_rows": lambda A, x: _numpy.spmv_rows(MIN, A, x["u_some"], x["rows_sel"]),
    "spmv_rows_minmax_all_present":
        lambda A, x: _numpy.spmv_rows_minmax(A, x["vals"], None, None),
    "spmv_rows_minmax_some_absent":
        lambda A, x: _numpy.spmv_rows_minmax(A, x["vals"], x["some"], None),
    "spmv_rows_minmax_rows":
        lambda A, x: _numpy.spmv_rows_minmax(A, x["vals"], x["some"], x["rows_sel"]),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_blocked_pass_peak_is_bounded_by_blocks(A, inputs, name):
    peak = peak_bytes(lambda: CALLS[name](A, inputs))
    assert peak < A.nvals * 8 // 4, f"{name}: peak {peak} B for nnz {A.nvals}"
