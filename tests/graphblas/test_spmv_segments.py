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

Integer min/max over short rows (mean length below
``_numpy.SHORT_SEGMENT_MEAN``) scatter with ``ufunc.at`` instead of calling
``ufunc.reduceat``.  The reduceat kernels are kept verbatim as a second
oracle: ``spmv``, ``spmv_rows``, ``spmv_rows_minmax`` and
``segment_reduce`` must match them byte for byte on both sides of the
crossover, with empty rows, absent inputs and inputs at the integer
limits.
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


def test_short_row_ids_built_once_per_matrix():
    rng = np.random.default_rng(1)
    A = short_row_matrix(rng, 2)
    u = short_row_input(rng, A.ncols, np.int64, 0.6)
    _numpy.spmv(sr.SEL2ND_MIN_INT64, A, u)
    ids = A._segment_ids
    lengths = A.row_degrees()[A.row_degrees() > 0]
    np.testing.assert_array_equal(ids, np.repeat(np.arange(lengths.size), lengths))
    _numpy.spmv(sr.SEL2ND_MIN_INT64, A, u)
    _numpy.spmv_rows_minmax(A, u.dense_arrays()[0], None, None)
    assert A._segment_ids is ids


# ----------------------------------------------------------------------
# short rows: integer min/max through ``ufunc.at`` below a mean segment
# length of ``_numpy.SHORT_SEGMENT_MEAN``, against the reduceat kernels
# they replaced (verbatim)
# ----------------------------------------------------------------------
def reduceat_reduce_segments(values: np.ndarray, starts: np.ndarray, monoid):
    """Reduce the non-empty segments of *values* beginning at *starts*."""
    fn = monoid.op.fn
    if isinstance(fn, np.ufunc):
        return fn.reduceat(values, starts)
    # keep-last semantics (ANY / SECOND): last element of each segment
    return values[np.r_[starts[1:], values.size] - 1]


def reduceat_segment_reduce(values: np.ndarray, seg_ids: np.ndarray, monoid):
    if seg_ids.size == 0:
        return seg_ids[:0], values[:0]
    boundaries = np.flatnonzero(np.r_[True, seg_ids[1:] != seg_ids[:-1]])
    return seg_ids[boundaries], reduceat_reduce_segments(values, boundaries, monoid)


def row_segments(A, rows_sel=None):
    """``(rows, starts, cols)``: the whole-matrix CSR segments of the
    non-empty rows among sorted *rows_sel* (``None``: every row)."""
    indptr = A.indptr
    if rows_sel is None:
        rows = np.flatnonzero(indptr[1:] != indptr[:-1])
        return rows, indptr[rows], A.indices
    lo = indptr[rows_sel]
    lengths = indptr[rows_sel + 1] - lo
    nonempty = lengths > 0
    rows, lo, lengths = rows_sel[nonempty], lo[nonempty], lengths[nonempty]
    flat, starts = _numpy._concat_ranges(lo, lengths, int(lengths.sum()))
    return rows, starts, A.indices[flat]


def reduceat_spmv(semiring, A, u):
    u_vals, u_present = u.dense_arrays()
    rows, starts, cols = row_segments(A)
    a_vals = A.values
    kind = semiring.multiply_kind
    keep = u_present[cols]
    if not keep.all():
        counts = np.add.reduceat(keep, starts, dtype=np.int64)
        hit = counts > 0
        rows, counts = rows[hit], counts[hit]
        starts = np.zeros(rows.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        cols = cols[keep]
        if kind != "second":
            a_vals = a_vals[keep]
    if kind == "second":
        prods = u_vals[cols]
    elif kind == "first":
        prods = a_vals
    else:
        prods = np.asarray(semiring.multiply(a_vals, u_vals[cols]))
    if prods.size == 0:
        return rows, prods[:0], 0, "spmv"
    return rows, reduceat_reduce_segments(prods, starts, semiring.add), int(cols.size), "spmv"


def reduceat_spmv_rows(semiring, A, u, rows_sel: np.ndarray):
    u_vals, u_present = u.dense_arrays()
    indptr = A.indptr
    lo, hi = indptr[rows_sel], indptr[rows_sel + 1]
    lengths = hi - lo
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=u.dtype), 0, "spmv_masked"
    flat, _ = _numpy._concat_ranges(lo, lengths, total)
    cols = A.indices[flat]
    rows = np.repeat(rows_sel, lengths)
    keep = u_present[cols]
    if not keep.all():
        cols, rows, flat = cols[keep], rows[keep], flat[keep]
    kind = semiring.multiply_kind
    if kind == "second":
        prods = u_vals[cols]
    elif kind == "first":
        prods = A.values[flat]
    else:
        prods = np.asarray(semiring.multiply(A.values[flat], u_vals[cols]))
    t_idx, t_vals = reduceat_segment_reduce(prods, rows, semiring.add)
    return t_idx, t_vals, int(cols.size), "spmv_masked"


def reduceat_spmv_rows_minmax(A, u_vals, u_present, rows_sel):
    rows, starts, cols = row_segments(A, rows_sel)
    if rows.size == 0:
        return rows, u_vals[:0], u_vals[:0]
    if u_present is None or u_present.all():
        par = u_vals[cols]
        return rows, np.minimum.reduceat(par, starts), np.maximum.reduceat(par, starts)
    info = np.iinfo(u_vals.dtype)
    t_min = np.minimum.reduceat(np.where(u_present, u_vals, info.max)[cols], starts)
    t_max = np.maximum.reduceat(np.where(u_present, u_vals, info.min)[cols], starts)
    hit = t_min <= t_max
    return rows[hit], t_min[hit], t_max[hit]


MEAN_ROW_LENGTHS = (1, 2, 3, 4, 5, 7, 8, 9, 30)
SHORT_DTYPES = (np.int32, np.int64)
PRESENT_FRACTIONS = (0.0, 0.3, 1.0)


def short_row_matrix(rng, mean: int) -> Matrix:
    """A matrix whose non-empty rows average exactly *mean* entries, with
    a third of its rows empty; each row's columns are distinct."""
    nrows, ncols = 60, 64
    nonempty = np.sort(rng.choice(nrows, 40, replace=False))
    lengths = np.full(nonempty.size, mean, dtype=np.int64)
    for _ in range(nonempty.size):  # move entries between rows, same total
        i, j = rng.integers(0, nonempty.size, 2)
        if lengths[i] > 1:
            lengths[i] -= 1
            lengths[j] += 1
    rows = np.repeat(nonempty, lengths)
    cols = np.concatenate([rng.choice(ncols, k, replace=False) for k in lengths])
    return Matrix.from_edges(nrows, ncols, rows, cols, values=True)


def short_row_input(rng, size: int, dtype, fraction: float) -> Vector:
    info = np.iinfo(dtype)
    vals = rng.integers(-1000, 1000, size).astype(dtype)
    vals[rng.random(size) < 0.15] = info.max
    vals[rng.random(size) < 0.15] = info.min
    present = rng.random(size) < fraction
    return Vector.dense(vals, present=present)


def assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        else:
            assert g == w


def short_row_cases(mean: int, dtype):
    for seed in range(3):
        rng = np.random.default_rng(1000 * mean + seed)
        A = short_row_matrix(rng, mean)
        assert A.nvals == 40 * mean
        for fraction in PRESENT_FRACTIONS:
            yield rng, A, short_row_input(rng, A.ncols, dtype, fraction)


@pytest.mark.parametrize("dtype", SHORT_DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("mean", MEAN_ROW_LENGTHS)
def test_short_row_spmv_matches_reduceat(mean, dtype):
    for op in ("min", "max"):
        semiring = sr.semiring(op, "second", dtype)
        for rng, A, u in short_row_cases(mean, dtype):
            assert_identical(_numpy.spmv(semiring, A, u), reduceat_spmv(semiring, A, u))
            for rows_sel in (
                np.arange(A.nrows, dtype=np.int64),
                np.flatnonzero(rng.random(A.nrows) < 0.5),
            ):
                assert_identical(
                    _numpy.spmv_rows(semiring, A, u, rows_sel),
                    reduceat_spmv_rows(semiring, A, u, rows_sel),
                )


@pytest.mark.parametrize("dtype", SHORT_DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("mean", MEAN_ROW_LENGTHS)
def test_short_row_spmv_rows_minmax_matches_reduceat(mean, dtype):
    for rng, A, u in short_row_cases(mean, dtype):
        u_vals, u_present = u.dense_arrays()
        for present in (u_present, None):
            for rows_sel in (None, np.flatnonzero(rng.random(A.nrows) < 0.5)):
                assert_identical(
                    _numpy.spmv_rows_minmax(A, u_vals, present, rows_sel),
                    reduceat_spmv_rows_minmax(A, u_vals, present, rows_sel),
                )


@pytest.mark.parametrize("dtype", SHORT_DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("mean", MEAN_ROW_LENGTHS)
def test_short_row_segment_reduce_matches_reduceat(mean, dtype):
    for op in ("min", "max"):
        monoid = mon.monoid_for(op, dtype)
        for rng, A, u in short_row_cases(mean, dtype):
            seg_ids = A.coo_rows()
            values, _ = u.dense_arrays()
            values = values[A.indices]
            assert_identical(
                _numpy.segment_reduce(values, seg_ids, monoid),
                reduceat_segment_reduce(values, seg_ids, monoid),
            )


def test_short_row_cases_cover_both_paths():
    """Means below the crossover take ``ufunc.at``, the rest ``reduceat``."""
    taken = {
        mean: _numpy._short_segment_ids(
            np.minimum, np.dtype(np.int64), np.arange(40) * mean, 40 * mean
        ) is not None
        for mean in MEAN_ROW_LENGTHS
    }
    assert _numpy.SHORT_SEGMENT_MEAN == 4
    assert taken == {1: True, 2: True, 3: True, 4: False, 5: False,
                     7: False, 8: False, 9: False, 30: False}


def test_identity_valued_present_input_keeps_its_row():
    """A present input equal to the reduction's identity is an entry."""
    info = np.iinfo(np.int64)
    A = Matrix.from_edges(3, 3, [0, 0, 2], [0, 1, 2], values=True)
    u = Vector.dense(np.array([info.max, 5, info.min]),
                     present=np.array([True, False, True]))
    idx, vals, flops, _ = _numpy.spmv(sr.SEL2ND_MIN_INT64, A, u)
    assert idx.tolist() == [0, 2] and vals.tolist() == [info.max, info.min]
    assert flops == 2
    idx, t_min, t_max = _numpy.spmv_rows_minmax(A, u.dense_arrays()[0],
                                                u.present_array(), None)
    assert idx.tolist() == [0, 2]
    assert t_min.tolist() == [info.max, info.min]
    assert t_max.tolist() == [info.max, info.min]


# ----------------------------------------------------------------------
# row blocks: ``spmv``, ``spmv_rows`` and ``spmv_rows_minmax`` stream the
# matrix in row-aligned blocks of at most ``_numpy.ROW_BLOCK_ENTRIES``
# entries.  Patched down to a few entries, small matrices span many blocks;
# every block size must match the whole-matrix reduceat kernels above byte
# for byte, flops and path included
# ----------------------------------------------------------------------
LONG_ROW, LONG = 5, 30  # one row longer than every patched block
DARK_ROWS = range(24, 36)  # their columns lie below DARK_COLS ...
DARK_COLS = 8  # ... which the "dark" presence leaves absent
BLOCK_SIZES = (1, 3, LONG - 1, None)  # None: the module default
BLOCK_PRESENCE = ("none", "some", "all", "dark")


@pytest.fixture(params=BLOCK_SIZES, ids=lambda b: f"block{b or 'default'}")
def block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(_numpy, "ROW_BLOCK_ENTRIES", request.param)
    return request.param


def blocked_matrix(rng, value_kind: str) -> Matrix:
    """48 × 40: rows of 0–9 entries with runs of empty rows (the first and
    last rows among them), one row of LONG entries, and a band of rows
    whose columns all lie below DARK_COLS while the others' lie above."""
    nrows, ncols = 48, 40
    lengths = rng.choice([0, 0, 1, 2, 3, 5, 9], nrows)
    lengths[[0, 1, 20, 21, 22, nrows - 1]] = 0
    lengths[LONG_ROW] = LONG
    rows, cols = [], []
    for r, k in enumerate(lengths):
        lo, hi = (0, DARK_COLS) if r in DARK_ROWS else (DARK_COLS, ncols)
        k = min(k, hi - lo)
        rows.append(np.full(k, r))
        cols.append(lo + rng.choice(hi - lo, k, replace=False))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    if value_kind == "bool":
        values = True
    elif value_kind == "fp64":
        values = rng.normal(size=rows.size)
    else:
        values = rng.integers(-9, 9, rows.size)
    return Matrix.from_edges(nrows, ncols, rows, cols, values=values)


def blocked_input(rng, size: int, kind: str, presence: str, dense: bool) -> Vector:
    if presence != "dark":
        return make_input(rng, size, kind, presence, dense)
    vals = _u_values(rng, kind, size)
    present = rng.random(size) < 0.7
    present[:DARK_COLS] = False
    if dense:
        return Vector.dense(vals, present=present)
    idx = np.flatnonzero(present)
    return Vector.sparse(size, idx, vals[idx], dtype=vals.dtype)


def block_count(A, rows_sel=None) -> int:
    _, _, blocks = _numpy._row_blocks(A, rows_sel, np.minimum, np.dtype(np.int64))
    return sum(1 for _ in blocks)


def blocked_row_selections(rng, nrows: int):
    return (
        np.arange(nrows, dtype=np.int64),
        np.flatnonzero(rng.random(nrows) < 0.5),
        np.arange(3, nrows - 3, dtype=np.int64),  # crosses every block edge
        np.array([LONG_ROW], dtype=np.int64),
        np.arange(20, 23, dtype=np.int64),  # empty rows only
    )


def test_blocked_matrices_span_several_blocks(block):
    rng = np.random.default_rng(0)
    A = blocked_matrix(rng, "int64")
    many = block_count(A)
    nonempty = int(np.count_nonzero(A.row_degrees()))
    if block is None:
        assert many == 1
    else:
        # one block per row at block size 1, rows grouped above it
        assert many == nonempty if block == 1 else 1 < many < nonempty
        assert block_count(A, np.arange(3, 45, dtype=np.int64)) > 1
    # the long row is a block of its own, so it sets the buffer width
    _, width, _ = _numpy._row_blocks(A, None, np.minimum, np.dtype(np.int64))
    assert width == (A.nvals if block is None else max(LONG, min(block, A.nvals)))


@pytest.mark.parametrize("dense", [False, True], ids=["sparse_u", "dense_u"])
@pytest.mark.parametrize("presence", BLOCK_PRESENCE)
@pytest.mark.parametrize("name", sorted(SEMIRINGS))
def test_blocked_spmv_matches_reduceat(block, name, presence, dense):
    """Every semiring, float ``plus`` bit for bit: rows never straddle a
    block, so each row's reduction order is unchanged."""
    semiring, u_kind = SEMIRINGS[name]
    a_kind = "fp64" if u_kind == "fp64" else ("bool" if u_kind == "bool" else "int64")
    for seed in range(3):
        rng = np.random.default_rng(seed)
        A = blocked_matrix(rng, a_kind)
        u = blocked_input(rng, A.ncols, u_kind, presence, dense)
        got = _numpy.spmv(semiring, A, u)
        assert_identical(got, reduceat_spmv(semiring, A, u))
        assert_identical(got, oracle_spmv(semiring, A, u))
        for rows_sel in blocked_row_selections(rng, A.nrows):
            assert_identical(
                _numpy.spmv_rows(semiring, A, u, rows_sel),
                reduceat_spmv_rows(semiring, A, u, rows_sel),
            )


@pytest.mark.parametrize("presence", BLOCK_PRESENCE)
@pytest.mark.parametrize("u_kind", sorted(MINMAX_KINDS))
def test_blocked_spmv_rows_minmax_matches_reduceat(block, u_kind, presence):
    for seed in range(3):
        rng = np.random.default_rng(seed)
        A = blocked_matrix(rng, "int64")
        u = blocked_input(rng, A.ncols, u_kind, presence, dense=True)
        u_vals, u_present = u.dense_arrays()
        for present in (u_present, None):
            for rows_sel in (None, *blocked_row_selections(rng, A.nrows)):
                assert_identical(
                    _numpy.spmv_rows_minmax(A, u_vals, present, rows_sel),
                    reduceat_spmv_rows_minmax(A, u_vals, present, rows_sel),
                )


@pytest.mark.parametrize("dtype", SHORT_DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("mean", (1, 2, 3, 5))
def test_blocked_short_rows_match_reduceat(block, monkeypatch, mean, dtype):
    """Blocks of short rows scatter with ``ufunc.at`` on their slice of the
    cached segment ids (every row) or on ids of their own (a subset)."""
    taken = []
    short = _numpy._short_segments

    def spy(*args):
        taken.append(short(*args))
        return taken[-1]

    monkeypatch.setattr(_numpy, "_short_segments", spy)
    for op in ("min", "max"):
        semiring = sr.semiring(op, "second", dtype)
        for rng, A, u in short_row_cases(mean, dtype):
            u_vals, u_present = u.dense_arrays()
            assert_identical(_numpy.spmv(semiring, A, u), reduceat_spmv(semiring, A, u))
            for rows_sel in (np.arange(A.nrows, dtype=np.int64),
                             np.flatnonzero(rng.random(A.nrows) < 0.5)):
                assert_identical(
                    _numpy.spmv_rows(semiring, A, u, rows_sel),
                    reduceat_spmv_rows(semiring, A, u, rows_sel),
                )
                assert_identical(
                    _numpy.spmv_rows_minmax(A, u_vals, u_present, rows_sel),
                    reduceat_spmv_rows_minmax(A, u_vals, u_present, rows_sel),
                )
            assert_identical(
                _numpy.spmv_rows_minmax(A, u_vals, u_present, None),
                reduceat_spmv_rows_minmax(A, u_vals, u_present, None),
            )
    assert any(taken)
