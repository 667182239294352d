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

# Stored entries per row-aligned block of ``spmv``, ``spmv_rows`` and
# ``spmv_rows_minmax``.  Each streams the matrix block by block, so every
# temporary that used to grow with nnz (gathered inputs, the absent-input
# mask and its compress) is bounded by one block; a row longer than a block
# is a block of its own.  A sweep from 2^14 to 2^18 on the ``rmat-serial``
# adjacency favoured 2^14-2^16 (docs/PERFORMANCE.md).
ROW_BLOCK_ENTRIES = 1 << 16


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


def _short_segments(fn, dtype, nseg: int, total: int) -> bool:
    """Whether *fn* reduces *total* values in *nseg* segments with
    ``ufunc.at``: integer min/max (order cannot change the result) with a
    mean segment length below :data:`SHORT_SEGMENT_MEAN`."""
    return (
        (fn is np.minimum or fn is np.maximum)
        and dtype.kind in "iu"
        and total < SHORT_SEGMENT_MEAN * nseg
    )


def _short_segment_ids(fn, dtype, starts: np.ndarray, total: int):
    """Per-entry segment numbers of *total* entries split at *starts* when
    *fn* reduces them with ``ufunc.at`` (:func:`_short_segments`), else
    ``None`` (``ufunc.reduceat``)."""
    if not _short_segments(fn, dtype, starts.size, total):
        return None
    lengths = np.diff(starts, append=total)
    return np.repeat(np.arange(starts.size, dtype=np.int64), lengths)


def _reduce_segments(values: np.ndarray, starts: np.ndarray, fn, out=None):
    """Reduce the non-empty segments of *values* beginning at *starts* with
    *fn*, into *out* when given."""
    seg = _short_segment_ids(fn, values.dtype, starts, values.size)
    if seg is not None:
        if out is None:
            out = np.empty(starts.size, dtype=values.dtype)
        return _scatter_reduce(fn, out, slice(None), seg, values)
    if isinstance(fn, np.ufunc):
        return fn.reduceat(values, starts, out=out)
    # keep-last semantics (ANY / SECOND): last element of each segment
    return np.take(values, np.r_[starts[1:], values.size] - 1, out=out, mode="clip")


def _scatter_reduce(fn, out: np.ndarray, rows, seg: np.ndarray, values: np.ndarray):
    """Integer min/max of *values* into ``out[seg]`` with ``ufunc.at``,
    after setting ``out[rows]`` to *fn*'s identity (a row no value reaches
    keeps it)."""
    info = np.iinfo(out.dtype)
    out[rows] = info.max if fn is np.minimum else info.min
    fn.at(out, seg, values)
    return out


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


def _row_blocks(A, rows_sel: Optional[np.ndarray], fn, dtype):
    """The non-empty rows among sorted *rows_sel* (``None``: every row of
    *A*), cut into row-aligned blocks of at most :data:`ROW_BLOCK_ENTRIES`
    stored entries; a longer row is a block of its own.

    Returns ``(rows, width, blocks)``.  *width* is the largest block's entry
    count.  *blocks* yields ``(b0, b1, pos, cols, starts, seg)`` for the
    rows ``rows[b0:b1]``: *pos* locates their entries in ``A.indices`` and
    ``A.values`` and *cols* are those entries' column ids — a slice and a
    view over every row; over a subset, a gather index and the gathered
    ids, the latter in a buffer reused from block to block.  When every
    row of *A* is reduced with ``ufunc.at`` (:func:`_short_segments`),
    *seg* is the block's slice of *A*'s cached
    :meth:`~repro.graphblas.Matrix.row_segment_ids` and *starts* is
    ``None``; otherwise *seg* is ``None`` and *starts* are the rows'
    segment starts within the block.
    """
    indptr = A.indptr
    if rows_sel is None:
        rows = np.flatnonzero(indptr[1:] != indptr[:-1])
        bounds = np.empty(rows.size + 1, dtype=np.int64)
        np.take(indptr, rows, out=bounds[:-1], mode="clip")
        bounds[-1] = indptr[-1]
    else:
        lo = indptr[rows_sel]
        lengths = indptr[rows_sel + 1] - lo
        nonempty = lengths > 0
        rows = rows_sel
        if not nonempty.all():
            rows, lo, lengths = rows_sel[nonempty], lo[nonempty], lengths[nonempty]
        bounds = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
    cuts = [0]
    while cuts[-1] < rows.size:
        b0 = cuts[-1]
        b1 = int(np.searchsorted(bounds, bounds[b0] + ROW_BLOCK_ENTRIES, "right")) - 1
        cuts.append(max(b1, b0 + 1))
    width = int(np.diff(bounds[cuts]).max(initial=0))
    ids = None
    if rows_sel is None and _short_segments(fn, dtype, rows.size, int(bounds[-1])):
        ids = A.row_segment_ids()

    def blocks():
        if rows_sel is not None:
            cols_buf = np.empty(width, dtype=np.int64)
        for b0, b1 in zip(cuts[:-1], cuts[1:]):
            e0, e1 = int(bounds[b0]), int(bounds[b1])
            if rows_sel is None:
                pos = slice(e0, e1)
                cols = A.indices[pos]
                seg = None if ids is None else ids[pos]
                starts = None if ids is not None else bounds[b0:b1] - e0
            else:
                pos, starts = _concat_ranges(lo[b0:b1], lengths[b0:b1], e1 - e0)
                cols = np.take(A.indices, pos, out=cols_buf[: pos.size], mode="clip")
                seg = None
            yield b0, b1, pos, cols, starts, seg

    return rows, width, blocks()


def _reduce_block(fn, out, b0, b1, values, starts, seg):
    """Reduce one block's rows into ``out[b0:b1]``: with ``ufunc.at`` by
    the row numbers *seg* when given (a row no value reaches keeps *fn*'s
    identity), else by their segment *starts*."""
    if seg is None:
        _reduce_segments(values, starts, fn, out=out[b0:b1])
    else:
        _scatter_reduce(fn, out, slice(b0, b1), seg, values)


def _reduced_dtype(fn, dtype) -> np.dtype:
    """The dtype *fn*'s segment reduction gives values of *dtype*
    (``add.reduceat`` widens small integers and bools)."""
    if isinstance(fn, np.ufunc):
        return fn.reduceat(np.zeros(1, dtype=dtype), [0]).dtype
    return dtype


def _spmv_blocks(semiring, A, u, rows_sel: Optional[np.ndarray]):
    """The blocked pass behind :func:`spmv` and :func:`spmv_rows`.

    Returns ``(rows, t_vals, flops)``: the rows among *rows_sel* that at
    least one present input reaches, their reduced products and the number
    of semiring multiplies.  Per block the present bits and the input
    values are gathered into two buffers allocated once per call, entries
    with an absent input are compressed out and each row's segment start is
    recounted; the block's reductions land in its rows' output slots.
    """
    u_vals, u_present = u.dense_arrays()
    kind = semiring.multiply_kind
    fn = semiring.add.op.fn
    dtype = gather_multiply(semiring, A.values[:0], u_vals[:0]).dtype
    rows, width, blocks = _row_blocks(A, rows_sel, fn, dtype)
    if rows.size == 0 and rows_sel is not None:
        # an empty row selection answers in the input's dtype
        return _EMPTY_I64, np.empty(0, dtype=u.dtype), 0
    out = np.empty(rows.size, dtype=_reduced_dtype(fn, dtype))
    hit = np.ones(rows.size, dtype=bool)
    present = np.empty(width, dtype=bool)
    gathered = np.empty(width, dtype=u_vals.dtype)
    flops = 0
    for b0, b1, pos, cols, starts, seg in blocks:
        # mode="clip": CSR column ids are in range, and an in-range take
        # with out= then writes straight into the buffer
        keep = np.take(u_present, cols, out=present[: cols.size], mode="clip")
        a_vals = None if kind == "second" else A.values[pos]
        dropped = not keep.all()
        if dropped:
            cols = cols[keep]
            if a_vals is not None:
                a_vals = a_vals[keep]
        u_gathered = (None if kind == "first" else
                      np.take(u_vals, cols, out=gathered[: cols.size], mode="clip"))
        prods = gather_multiply(semiring, a_vals, u_gathered)
        flops += cols.size
        if dropped and seg is None:
            counts = np.add.reduceat(keep, starts, dtype=np.int64)
            reached = counts > 0
            hit[b0:b1] = reached
            counts = counts[reached]
            if counts.size:
                starts = np.zeros(counts.size, dtype=np.int64)
                np.cumsum(counts[:-1], out=starts[1:])
                out[b0:b1][reached] = _reduce_segments(prods, starts, fn)
            continue
        if dropped:
            # a row is dropped when no entry reached it (a present input
            # equal to the identity still counts)
            seg = seg[keep]
            hit[b0:b1] = False
            hit[seg] = True
        _reduce_block(fn, out, b0, b1, prods, starts, seg)
    if flops == 0:
        return rows[:0], np.empty(0, dtype=dtype), 0
    if hit.all():
        return rows, out, flops
    return rows[hit], out[hit], flops


def spmv(semiring, A, u):
    """Row-streaming kernel: work ∝ nnz(A) restricted to present u entries.

    Returns ``(t_idx, t_vals, flops, path)`` where *flops* is the number of
    semiring multiplies performed (the quantity Figure 8 attributes).  The
    segments are the CSR rows, streamed in row-aligned blocks of at most
    :data:`ROW_BLOCK_ENTRIES` entries (:func:`_spmv_blocks`), so no
    temporary grows with nnz.  Only integer min/max over short rows uses
    per-entry row numbers (:func:`_short_segments`).
    """
    t_idx, t_vals, flops = _spmv_blocks(semiring, A, u, None)
    return t_idx, t_vals, flops, "spmv"


def spmv_rows(semiring, A, u, rows_sel: np.ndarray):
    """Masked row-subset SpMV: stream only the mask-allowed rows.

    Work ∝ the allowed rows' degrees — the paper's masked SpMV over
    unconverged vertices.  *rows_sel* must be sorted, which keeps each
    row's entries one segment, so no sort is needed before the reduction.
    """
    t_idx, t_vals, flops = _spmv_blocks(semiring, A, u, rows_sel)
    return t_idx, t_vals, flops, "spmv_masked"


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
    inputs read as the identity of each reduction (two identity-substituted
    copies of *u_vals*, built once per call), so a row with no present
    input ends with ``t_min > t_max`` and is dropped.  The rows stream in
    blocks like :func:`spmv`'s.
    """
    dtype = u_vals.dtype
    rows, width, blocks = _row_blocks(A, rows_sel, np.minimum, dtype)
    if rows.size == 0:
        return rows, u_vals[:0], u_vals[:0]
    every = u_present is None or u_present.all()
    if every:
        lo_src = hi_src = u_vals
    else:
        info = np.iinfo(dtype)
        lo_src = np.where(u_present, u_vals, info.max)
        hi_src = np.where(u_present, u_vals, info.min)
    t_min = np.empty(rows.size, dtype=dtype)
    t_max = np.empty(rows.size, dtype=dtype)
    # one gather buffer: the min reduction is done with it before the
    # max's gather overwrites it
    buf = np.empty(width, dtype=dtype)
    for b0, b1, _, cols, starts, seg in blocks:
        par = np.take(lo_src, cols, out=buf[: cols.size], mode="clip")
        _reduce_block(np.minimum, t_min, b0, b1, par, starts, seg)
        if not every:
            par = np.take(hi_src, cols, out=par, mode="clip")
        _reduce_block(np.maximum, t_max, b0, b1, par, starts, seg)
    if every:
        return rows, t_min, t_max
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
