"""The NumPy kernel tier — the always-available reference implementations.

These are the hot-path kernels of the GraphBLAS substrate exactly as they
evolved through the sparsity-proportionality work (PR 2): vectorised NumPy
with no per-element Python loops.  The compiled tier
(:mod:`repro.graphblas.kernels._compiled`) must match these functions
bit-for-bit on every supported input — the equivalence suite in
``tests/graphblas/test_kernel_tiers.py`` enforces it — and falls back to
them for operators or dtypes it does not compile.

Functions here are deliberately free of any :mod:`repro.graphblas` imports:
they receive :class:`~repro.graphblas.matrix.Matrix` /
:class:`~repro.graphblas.vector.Vector` / monoid / semiring objects duck
typed, so the kernels subpackage sits below the rest of the substrate and
can be imported by any of its modules without cycles.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "TIER_NAME",
    "lookup_sorted",
    "in_sorted",
    "intersect_sorted",
    "merge_union",
    "merge_disjoint",
    "segment_reduce",
    "reduce_by_rows",
    "gather_multiply",
    "spmv",
    "spmv_rows",
    "spmv_rows_minmax",
    "spmspv",
]

TIER_NAME = "numpy"

_EMPTY_I64 = np.empty(0, dtype=np.int64)

# Mean segment length below which integer min/max reductions scatter with
# ``ufunc.at`` on per-entry segment ids instead of calling
# ``ufunc.reduceat``, whose fixed cost per segment (~20 ns) dominates short
# rows.  Measured with the segment ids' cost included: ``ufunc.at`` wins
# below a mean of ~4 and ``reduceat`` above it (docs/PERFORMANCE.md).
SHORT_SEGMENT_MEAN = 4


# ----------------------------------------------------------------------
# sorted-pattern primitives (the masked-write inner loops)
# ----------------------------------------------------------------------

def lookup_sorted(sorted_idx: np.ndarray, idx: np.ndarray):
    """``(hit, pos)``: membership of *idx* in the sorted unique array."""
    if sorted_idx.size == 0:
        return np.zeros(idx.shape, dtype=bool), np.zeros(idx.shape, dtype=np.int64)
    pos = np.searchsorted(sorted_idx, idx)
    hit = pos < sorted_idx.size
    hit &= sorted_idx[np.minimum(pos, sorted_idx.size - 1)] == idx
    return hit, pos


def in_sorted(sorted_idx: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return lookup_sorted(sorted_idx, idx)[0]


def intersect_sorted(ai: np.ndarray, bi: np.ndarray):
    """Intersection of two sorted unique index arrays.

    Returns ``(common, a_pos, b_pos)`` like ``np.intersect1d(...,
    return_indices=True)``, but as a searchsorted probe of the smaller
    array into the larger — O(min·log max) instead of re-sorting the
    concatenation.
    """
    if ai.size == 0 or bi.size == 0:
        return _EMPTY_I64, _EMPTY_I64, _EMPTY_I64
    if ai.size > bi.size:
        common, b_pos, a_pos = intersect_sorted(bi, ai)
        return common, a_pos, b_pos
    hit, pos = lookup_sorted(bi, ai)
    a_pos = np.flatnonzero(hit)
    return ai[hit], a_pos, pos[hit]


def merge_union(
    ai: np.ndarray, av: np.ndarray, bi: np.ndarray, bv: np.ndarray, op, dtype
):
    """Union-merge two sorted sparse patterns, combining overlaps with *op*."""
    if ai.size == 0:
        return bi.copy(), bv.astype(dtype, copy=True)
    if bi.size == 0:
        return ai.copy(), av.astype(dtype, copy=True)
    all_idx = np.union1d(ai, bi)
    out = np.zeros(all_idx.size, dtype=dtype)
    a_pos = np.searchsorted(all_idx, ai)
    b_pos = np.searchsorted(all_idx, bi)
    in_a = np.zeros(all_idx.size, dtype=bool)
    in_b = np.zeros(all_idx.size, dtype=bool)
    in_a[a_pos] = True
    in_b[b_pos] = True
    out[a_pos] = av
    only_b = in_b & ~in_a
    both = in_a & in_b
    b_vals_at = np.zeros(all_idx.size, dtype=dtype)
    b_vals_at[b_pos] = bv
    out[only_b] = b_vals_at[only_b]
    if both.any():
        out[both] = op(out[both], b_vals_at[both])
    return all_idx, out


def merge_disjoint(
    ai: np.ndarray, av: np.ndarray, bi: np.ndarray, bv: np.ndarray, dtype
):
    """Merge two sorted sparse patterns with disjoint index sets, O(total)."""
    if ai.size == 0:
        return bi, bv
    if bi.size == 0:
        return ai, av
    total = ai.size + bi.size
    out_i = np.empty(total, dtype=np.int64)
    out_v = np.empty(total, dtype=dtype)
    pos_b = np.searchsorted(ai, bi) + np.arange(bi.size, dtype=np.int64)
    is_b = np.zeros(total, dtype=bool)
    is_b[pos_b] = True
    out_i[is_b] = bi
    out_v[is_b] = bv
    out_i[~is_b] = ai
    out_v[~is_b] = av
    return out_i, out_v


# ----------------------------------------------------------------------
# segment reductions (shared with combblas.spmv)
# ----------------------------------------------------------------------

def segment_reduce(values: np.ndarray, seg_ids: np.ndarray, monoid):
    """Reduce *values* grouped by sorted *seg_ids* with the monoid.

    Returns ``(unique_ids, reduced)``.  Uses ``ufunc.reduceat`` when the
    monoid's op is a NumPy ufunc (``ufunc.at`` for integer min/max over
    short segments), else a keep-last scatter (valid for ANY).
    """
    if seg_ids.size == 0:
        return seg_ids[:0], values[:0]
    boundaries = np.flatnonzero(np.r_[True, seg_ids[1:] != seg_ids[:-1]])
    return seg_ids[boundaries], _reduce_segments(values, boundaries, monoid.op.fn)


def _short_segment_ids(fn, dtype, starts: np.ndarray, total: int, A=None):
    """Per-entry segment numbers of *total* entries split at *starts* when
    *fn* reduces them with ``ufunc.at``, else ``None`` (``ufunc.reduceat``).

    ``ufunc.at`` is taken for integer min/max (order cannot change the
    result) with a mean segment length below :data:`SHORT_SEGMENT_MEAN`.
    When the segments are all the non-empty rows of matrix *A*, the ids
    are *A*'s cached :meth:`~repro.graphblas.Matrix.row_segment_ids`.
    """
    if not (
        (fn is np.minimum or fn is np.maximum)
        and dtype.kind in "iu"
        and total < SHORT_SEGMENT_MEAN * starts.size
    ):
        return None
    if A is not None:
        return A.row_segment_ids()
    lengths = np.diff(starts, append=total)
    return np.repeat(np.arange(starts.size, dtype=np.int64), lengths)


def _reduce_segments(values: np.ndarray, starts: np.ndarray, fn, seg=None):
    """Reduce the non-empty segments of *values* beginning at *starts* with
    *fn*.

    *seg* passes segment numbers the caller already built with
    :func:`_short_segment_ids` (one per value; a segment no value reaches
    then holds the identity); without it the choice is made here.
    """
    if seg is None:
        seg = _short_segment_ids(fn, values.dtype, starts, values.size)
    if seg is not None:
        info = np.iinfo(values.dtype)
        out = np.full(starts.size, info.max if fn is np.minimum else info.min,
                      dtype=values.dtype)
        fn.at(out, seg, values)
        return out
    if isinstance(fn, np.ufunc):
        return fn.reduceat(values, starts)
    # keep-last semantics (ANY / SECOND): last element of each segment
    return values[np.r_[starts[1:], values.size] - 1]


def reduce_by_rows(
    values: np.ndarray, rows: np.ndarray, monoid, nrows: int
) -> Tuple[np.ndarray, np.ndarray, str]:
    """Reduce *values* by **unsorted** *rows*; returns ``(idx, vals, path)``.

    The generic path stable-sorts the row ids and segment-reduces.  For
    min/max over non-negative integers — the add monoid of LACC's
    *(Select2nd, min)* semiring — a packed ``row·bound + value`` key lets a
    single plain ``np.sort`` replace the argsort + gather + reduceat chain
    (~6–8× faster), with the group minimum/maximum read off the segment
    boundaries.  ``path`` is ``"packed"`` or ``"sorted"`` for the caller's
    obs span.
    """
    if rows.size == 0:
        return rows[:0], values[:0], "sorted"
    opname = monoid.op.name
    if opname in ("min", "max") and values.dtype.kind in "iu":
        vmin = int(values.min())
        if vmin >= 0:
            bound = int(values.max()) + 1
            if int(nrows) * bound < 2 ** 62:
                key = rows * bound + values.astype(np.int64, copy=False)
                key.sort()
                r = key // bound
                starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
                pick = starts if opname == "min" else np.r_[starts[1:], key.size] - 1
                uniq = r[starts]
                out = (key[pick] - uniq * bound).astype(values.dtype)
                return uniq, out, "packed"
    order = np.argsort(rows, kind="stable")
    idx, vals = segment_reduce(values[order], rows[order], monoid)
    return idx, vals, "sorted"


def gather_multiply(semiring, a_vals: np.ndarray, u_vals: np.ndarray):
    """Semiring multiply with the Select2nd/First short-circuits.

    ``second``-kind multiplies (Select2nd, ANY) are pure gathers — the
    result *is* the vector value, no arithmetic and no copies; ``first``
    returns the matrix value.  Only generic operators pay a ufunc call.
    """
    kind = semiring.multiply_kind
    if kind == "second":
        return u_vals
    if kind == "first":
        return a_vals
    return np.asarray(semiring.multiply(a_vals, u_vals))


# ----------------------------------------------------------------------
# matrix-vector kernels
# ----------------------------------------------------------------------

def _concat_ranges(lo: np.ndarray, lengths: np.ndarray, total: int):
    """``(flat, starts)``: the index ranges ``[lo[k], lo[k] + lengths[k])``
    laid end to end (*total* entries), and the offset each range starts at."""
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    flat = np.repeat(lo - starts, lengths)
    flat += np.arange(total, dtype=np.int64)
    return flat, starts


def _row_segments(A, rows_sel: Optional[np.ndarray] = None):
    """The CSR segments of the non-empty rows among sorted *rows_sel*
    (``None``: every row of *A*).

    Returns ``(rows, starts, cols)``: the column ids of the rows' entries
    laid end to end, with row ``rows[k]``'s segment starting at
    ``starts[k]``.  Over every row the segments are ``A.indices`` itself
    and the starts are ``indptr``, so no gather index is built.
    """
    indptr = A.indptr
    if rows_sel is None:
        rows = np.flatnonzero(indptr[1:] != indptr[:-1])
        return rows, indptr[rows], A.indices
    lo = indptr[rows_sel]
    lengths = indptr[rows_sel + 1] - lo
    nonempty = lengths > 0
    rows, lo, lengths = rows_sel[nonempty], lo[nonempty], lengths[nonempty]
    flat, starts = _concat_ranges(lo, lengths, int(lengths.sum()))
    return rows, starts, A.indices[flat]


def spmv(semiring, A, u):
    """Row-streaming kernel: work ∝ nnz(A) restricted to present u entries.

    Returns ``(t_idx, t_vals, flops, path)`` where *flops* is the number of
    semiring multiplies performed (the quantity Figure 8 attributes).  The
    segments are the CSR rows: their starts are ``indptr`` over the
    non-empty rows, and entries with an absent input are dropped with the
    starts recounted per row.  Only integer min/max over short rows builds
    per-entry row numbers (:func:`_short_segment_ids`).
    """
    u_vals, u_present = u.dense_arrays()
    rows, starts, cols = _row_segments(A)
    a_vals = A.values
    kind = semiring.multiply_kind
    keep = u_present[cols]
    dropped = not keep.all()
    if dropped:
        cols = cols[keep]
        if kind != "second":
            a_vals = a_vals[keep]
    if kind == "second":
        prods = u_vals[cols]
    elif kind == "first":
        prods = a_vals
    else:
        prods = np.asarray(semiring.multiply(a_vals, u_vals[cols]))
    flops = int(cols.size)
    if flops == 0:
        return rows[:0], prods[:0], 0, "spmv"
    fn = semiring.add.op.fn
    seg = _short_segment_ids(fn, prods.dtype, starts, keep.size, A)
    if not dropped:
        return rows, _reduce_segments(prods, starts, fn, seg), flops, "spmv"
    if seg is None:
        counts = np.add.reduceat(keep, starts, dtype=np.int64)
        hit = counts > 0
        counts = counts[hit]
        starts = np.zeros(counts.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        return rows[hit], _reduce_segments(prods, starts, fn), flops, "spmv"
    # short rows keep their segment numbers; a row is dropped when no
    # entry reached it (a present input equal to the identity still counts)
    seg = seg[keep]
    hit = np.zeros(rows.size, dtype=bool)
    hit[seg] = True
    return rows[hit], _reduce_segments(prods, starts, fn, seg)[hit], flops, "spmv"


def spmv_rows(semiring, A, u, rows_sel: np.ndarray):
    """Masked row-subset SpMV: stream only the mask-allowed rows.

    Work ∝ the allowed rows' degrees — the paper's masked SpMV over
    unconverged vertices.  *rows_sel* must be sorted, which keeps the
    gathered row ids grouped so no sort is needed before the reduction.
    """
    u_vals, u_present = u.dense_arrays()
    indptr = A.indptr
    lo, hi = indptr[rows_sel], indptr[rows_sel + 1]
    lengths = hi - lo
    total = int(lengths.sum())
    if total == 0:
        return _EMPTY_I64, np.empty(0, dtype=u.dtype), 0, "spmv_masked"
    flat, _ = _concat_ranges(lo, lengths, total)
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
    t_idx, t_vals = segment_reduce(prods, rows, semiring.add)
    return t_idx, t_vals, int(cols.size), "spmv_masked"


def spmv_rows_minmax(
    A,
    u_vals: np.ndarray,
    u_present: Optional[np.ndarray],
    rows_sel: Optional[np.ndarray],
):
    """The *(Select2nd, min)* and *(Select2nd, max)* products over the
    sorted rows *rows_sel* (``None``: every row) in one pass.

    The input is the integer array *u_vals* with the bitmap *u_present*
    of its stored entries (``None``: all stored), so a caller holding a
    dense array and a scope bitmap builds no vector.  Returns ``(t_idx,
    t_min, t_max)`` for the rows with at least one present input — each
    equal to what :func:`spmv_rows` gives under either semiring.  Absent
    inputs read as the identity of each reduction, so a row with no
    present input ends with ``t_min > t_max`` and is dropped.
    """
    rows, starts, cols = _row_segments(A, rows_sel)
    if rows.size == 0:
        return rows, u_vals[:0], u_vals[:0]
    seg = _short_segment_ids(np.minimum, u_vals.dtype, starts, cols.size,
                             A if rows_sel is None else None)
    if u_present is None or u_present.all():
        par = u_vals[cols]
        return (rows, _reduce_segments(par, starts, np.minimum, seg),
                _reduce_segments(par, starts, np.maximum, seg))
    info = np.iinfo(u_vals.dtype)
    t_min = _reduce_segments(np.where(u_present, u_vals, info.max)[cols],
                             starts, np.minimum, seg)
    t_max = _reduce_segments(np.where(u_present, u_vals, info.min)[cols],
                             starts, np.maximum, seg)
    hit = t_min <= t_max
    return rows[hit], t_min[hit], t_max[hit]


def spmspv(
    semiring,
    A,
    u,
    allow: Optional[np.ndarray] = None,
    allowed_rows: Optional[np.ndarray] = None,
):
    """Column-gather kernel: work ∝ sum of degrees of present u entries.

    Returns ``(t_idx, t_vals, flops, path)`` like :func:`spmv`.  With a
    pushed-down mask, gathered entries landing on masked-out rows are
    dropped *before* the multiply and the reduction, so neither pays for
    them.  For Select2nd-kind multiplies the product array is the repeated
    input values — the matrix values are never touched — and min/max
    reductions run on the packed-key fast path (:func:`reduce_by_rows`).
    """
    ui, uv = u.sparse_arrays()
    if ui.size == 0:
        return ui[:0], uv[:0], 0, "spmspv"
    indptr, rowids, vals = A.csc_arrays()
    lo, hi = indptr[ui], indptr[ui + 1]
    lengths = hi - lo
    total = int(lengths.sum())
    if total == 0:
        return ui[:0], uv[:0], 0, "spmspv"
    flat, _ = _concat_ranges(lo, lengths, total)
    rows = rowids[flat]
    u_src = np.repeat(uv, lengths)
    masked = allow is not None or allowed_rows is not None
    if masked:
        keep = allow[rows] if allow is not None else in_sorted(allowed_rows, rows)
        if not keep.all():
            rows, flat, u_src = rows[keep], flat[keep], u_src[keep]
    kind = semiring.multiply_kind
    if kind == "second":
        prods = u_src
    elif kind == "first":
        prods = vals[flat]
    else:
        prods = np.asarray(semiring.multiply(vals[flat], u_src))
    flops = int(rows.size)
    t_idx, t_vals, rpath = reduce_by_rows(prods, rows, semiring.add, A.nrows)
    path = "spmspv_sel2nd" if (kind == "second" and rpath == "packed") else "spmspv"
    if masked:
        path += "_masked"
    return t_idx, t_vals, flops, path
