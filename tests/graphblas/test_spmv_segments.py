"""SpMV segment equivalence: ``kernels._numpy.spmv`` against its COO form.

The row-streaming kernel takes its segment starts from ``indptr`` over the
non-empty rows and recounts them per row when absent inputs are dropped.
The kernel it replaced — row ids from ``Matrix.coo_rows()``, compressed on
the present inputs, segments found by a row-id scan — is kept below
verbatim as the oracle.  Both must return byte- and dtype-identical
``t_idx``/``t_vals`` and the same ``flops`` and ``path`` on every matrix
shape, input presence and semiring kind.

The fused min/max kernel ``spmv_rows_minmax`` reduces the same CSR
segments; it must equal two ``spmv_rows`` calls under *(Select2nd, min)*
and *(Select2nd, max)* on every shape, presence and row selection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphblas import Matrix, Vector
from repro.graphblas import binaryops as bop
from repro.graphblas import monoid as mon
from repro.graphblas import semirings as sr
from repro.graphblas.kernels import _numpy
from repro.graphblas.semiring import Semiring


# ----------------------------------------------------------------------
# oracle: the COO-row kernel, verbatim
# ----------------------------------------------------------------------
def segment_reduce(values: np.ndarray, seg_ids: np.ndarray, monoid):
    if seg_ids.size == 0:
        return seg_ids[:0], values[:0]
    boundaries = np.flatnonzero(np.r_[True, seg_ids[1:] != seg_ids[:-1]])
    uniq = seg_ids[boundaries]
    fn = monoid.op.fn
    if isinstance(fn, np.ufunc):
        return uniq, fn.reduceat(values, boundaries)
    # keep-last semantics (ANY / SECOND): last element of each segment
    last = np.r_[boundaries[1:], values.size] - 1
    return uniq, values[last]


def oracle_spmv(semiring, A, u):
    u_vals, u_present = u.dense_arrays()
    cols = A.indices
    rows = A.coo_rows()
    kind = semiring.multiply_kind
    keep = u_present[cols]
    if not keep.all():
        cols = cols[keep]
        rows = rows[keep]
        a_vals = A.values[keep] if kind != "second" else None
    else:
        a_vals = A.values if kind != "second" else None
    if kind == "second":
        prods = u_vals[cols]
    elif kind == "first":
        prods = a_vals
    else:
        prods = np.asarray(semiring.multiply(a_vals, u_vals[cols]))
    t_idx, t_vals = segment_reduce(prods, rows, semiring.add)
    return t_idx, t_vals, int(cols.size), "spmv"


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
def _u_values(rng, kind: str, size: int) -> np.ndarray:
    if kind == "int64":
        return rng.integers(-50, 50, size)
    if kind == "int32":
        return rng.integers(-50, 50, size).astype(np.int32)
    if kind == "uint64":
        return rng.integers(0, 2**63, size, dtype=np.uint64) * np.uint64(2)
    if kind == "int64-extremes":
        info = np.iinfo(np.int64)
        return rng.choice(np.array([info.min, info.max, 0, -1, 7]), size)
    if kind == "fp64":
        vals = rng.normal(size=size)
        vals[rng.random(size) < 0.2] = np.nan
        vals[rng.random(size) < 0.2] = -0.0
        vals[rng.random(size) < 0.2] = 0.0
        return vals
    return rng.random(size) < 0.5  # bool


SEMIRINGS = {
    "min_second_int64": (sr.SEL2ND_MIN_INT64, "int64"),
    "max_second_int64": (sr.SEL2ND_MAX_INT64, "int64"),
    "min_second_extremes": (sr.SEL2ND_MIN_INT64, "int64-extremes"),
    "max_second_extremes": (sr.SEL2ND_MAX_INT64, "int64-extremes"),
    "min_second_int32": (sr.semiring("min", "second", np.int32), "int32"),
    "max_second_uint64": (sr.semiring("max", "second", np.uint64), "uint64"),
    "min_second_fp64": (sr.semiring("min", "second", np.float64), "fp64"),
    "max_second_fp64": (sr.semiring("max", "second", np.float64), "fp64"),
    "plus_times_fp64": (sr.PLUS_TIMES_FP64, "fp64"),
    "plus_second_fp64": (sr.semiring("plus", "second", np.float64), "fp64"),
    "lor_land_bool": (sr.LOR_LAND_BOOL, "bool"),
    "lor_second_bool": (sr.semiring("lor", "second", np.bool_), "bool"),
    "any_second_int64": (sr.ANY_SECOND_INT64, "int64"),
    "plus_pair_int64": (sr.PLUS_PAIR_INT64, "int64"),
    "min_first_int64": (sr.MIN_FIRST_INT64, "int64"),
    "min_plus_int64": (Semiring(mon.MIN_INT64, bop.PLUS), "int64"),
}

SHAPES = ("empty_0x0", "no_entries", "empty_rows", "one_row", "zero_rows", "rect", "dense_rows")
PRESENCE = ("none", "some", "all")


def make_matrix(rng, shape: str, value_kind: str) -> Matrix:
    nrows, ncols, m = {
        "empty_0x0": (0, 0, 0),
        "no_entries": (7, 7, 0),
        "empty_rows": (40, 40, 25),
        "one_row": (1, 30, 12),
        "zero_rows": (0, 12, 0),
        "rect": (25, 60, 120),
        "dense_rows": (12, 12, 300),
    }[shape]
    rows = rng.integers(0, max(nrows, 1), m)
    cols = rng.integers(0, max(ncols, 1), m)
    if value_kind == "bool":
        values = True
    elif value_kind == "fp64":
        values = rng.normal(size=m)
    else:
        values = rng.integers(-9, 9, m)
    return Matrix.from_edges(nrows, ncols, rows, cols, values=values)


def make_input(rng, size: int, kind: str, presence: str, dense: bool) -> Vector:
    vals = _u_values(rng, kind, size)
    present = {
        "none": np.zeros(size, dtype=bool),
        "all": np.ones(size, dtype=bool),
        "some": rng.random(size) < 0.5,
    }[presence]
    if dense:
        # absent positions keep their (garbage) values in dense mode
        return Vector.dense(vals, present=present)
    idx = np.flatnonzero(present)
    return Vector.sparse(size, idx, vals[idx], dtype=vals.dtype)


@pytest.mark.parametrize("dense", [False, True], ids=["sparse_u", "dense_u"])
@pytest.mark.parametrize("presence", PRESENCE)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_spmv_matches_coo_oracle(name, shape, presence, dense):
    semiring, u_kind = SEMIRINGS[name]
    for seed in range(4):
        rng = np.random.default_rng(seed)
        a_kind = "fp64" if u_kind == "fp64" else ("bool" if u_kind == "bool" else "int64")
        A = make_matrix(rng, shape, a_kind)
        u = make_input(rng, A.ncols, u_kind, presence, dense)
        got = _numpy.spmv(semiring, A, u)
        want = oracle_spmv(semiring, A, u)
        for g, w in zip(got[:2], want[:2]):
            assert g.dtype == w.dtype
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        assert got[2:] == want[2:]


MINMAX_KINDS = {"int64": np.int64, "int64-extremes": np.int64,
                "int32": np.int32, "uint64": np.uint64}


@pytest.mark.parametrize("rows_kind", ["every", "none", "some", "all"])
@pytest.mark.parametrize("presence", PRESENCE)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("u_kind", sorted(MINMAX_KINDS))
def test_spmv_rows_minmax_matches_two_spmv_rows(u_kind, shape, presence, rows_kind):
    dtype = MINMAX_KINDS[u_kind]
    sel_min = sr.semiring("min", "second", dtype)
    sel_max = sr.semiring("max", "second", dtype)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        A = make_matrix(rng, shape, "int64")
        u = make_input(rng, A.ncols, u_kind, presence, dense=bool(seed % 2))
        rows_sel = {
            "every": None,
            "none": np.empty(0, dtype=np.int64),
            "some": np.flatnonzero(rng.random(A.nrows) < 0.4),
            "all": np.arange(A.nrows, dtype=np.int64),
        }[rows_kind]
        scan = np.arange(A.nrows, dtype=np.int64) if rows_sel is None else rows_sel
        want_idx, want_min, _, _ = _numpy.spmv_rows(sel_min, A, u, scan)
        _, want_max, _, _ = _numpy.spmv_rows(sel_max, A, u, scan)
        u_vals, u_present = u.dense_arrays()
        if presence == "all":
            u_present = None
        got = _numpy.spmv_rows_minmax(A, u_vals, u_present, rows_sel)
        for g, w in zip(got, (want_idx, want_min, want_max)):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


def test_spmv_never_builds_coo_rows():
    rng = np.random.default_rng(0)
    A = make_matrix(rng, "empty_rows", "bool")
    u = make_input(rng, A.ncols, "int64", "some", dense=False)
    for semiring in (sr.SEL2ND_MIN_INT64, sr.PLUS_PAIR_INT64):
        _numpy.spmv(semiring, A, u)
    assert A._coo_rows is None
