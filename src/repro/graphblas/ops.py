"""GraphBLAS operations over :class:`Vector` and :class:`Matrix`.

These are the primitives Algorithms 3–6 of the paper are written in:
``GrB_mxv``, ``GrB_eWiseMult``, ``GrB_extract``, ``GrB_assign``,
``GrB_Vector_nvals`` and ``GrB_Vector_extractTuples`` (the last two live on
:class:`Vector` directly).  The signatures mirror the C API's order —
*(output, mask, accumulator, operator, inputs…, descriptor)* — so the LACC
code in :mod:`repro.core` reads like the paper's listings.

Every operation follows the standard GraphBLAS write semantics::

    T              = computed result
    Z              = T                     (no accumulator)
                   = union_merge(W, T)    (with accumulator)
    W⟨mask⟩        = Z   i.e.  W = (Z ∩ allow) ∪ (W ∩ ¬allow)
    W⟨mask,repl⟩   = Z ∩ allow

Cost-proportionality is the organising principle (the paper's §IV-B:
"vectors start out dense and get sparse rapidly"):

* the masked write dispatches between a **dense** formulation (full
  ``values``/``present`` arrays, Θ(n)) and a **sparse** sorted-merge over
  stored entries only (O(nvals));
* ``GrB_mxv`` dispatches between a row-streaming SpMV kernel (dense-ish
  input vector), a mask-restricted row-subset SpMV (work ∝ degrees of the
  allowed rows — the paper's masked SpMV over unconverged vertices), and a
  column-gather SpMSpV kernel (sparse input vector), the same runtime
  decisions CombBLAS makes (§V-A);
* the *(Select2nd, min)* semiring — LACC's only hot semiring — takes
  specialised kernels: the multiply is a pure gather (matrix values are
  never read) and the per-row min-reduction runs on a packed
  ``row·bound + value`` key sort instead of a stable argsort.

See ``docs/PERFORMANCE.md`` for the dispatch rules and thresholds.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs.tracer import current as _obs

from . import kernels as _kernels
from .binaryop import BinaryOp
from .descriptor import NULL, Descriptor, Mask
from .matrix import Matrix
from .monoid import Monoid
from .semiring import Semiring
from .sorting import unique_sorted
from .types import promote
from .vector import Vector

__all__ = [
    "mxv",
    "mxm",
    "ewise_mult",
    "extract",
    "assign",
    "assign_scalar",
    "reduce_matrix",
    "reduce_by_rows",
    "gather_multiply",
    "SPMSPV_DENSITY_THRESHOLD",
    "MASKED_SPMV_ROW_FRACTION",
    "SPARSE_WRITE_MAX_FRACTION",
]

# Input-vector density above which mxv streams rows (SpMV) instead of
# gathering columns (SpMSpV).  Mirrors CombBLAS's dispatch.
SPMSPV_DENSITY_THRESHOLD = 0.10

# With a mask allowing at most this fraction of the output rows, the SpMV
# kernel streams only the allowed rows (work ∝ their degrees) instead of
# the whole matrix.
MASKED_SPMV_ROW_FRACTION = 0.5

# The masked write takes the O(nvals) sorted-merge path when the output is
# sparse and (stored + incoming) entries stay below this fraction of n.
SPARSE_WRITE_MAX_FRACTION = 0.25

# Test hooks: force the masked-write path ("dense" | "sparse" | None) and
# toggle the mask pushdown into the mxv kernels.  The forced dense path is
# the pre-sparsification oracle the equivalence suite compares against.
_FORCE_WRITE_PATH: Optional[str] = None
MASK_PUSHDOWN = True

IndexArray = Union[None, Sequence[int], np.ndarray]

_EMPTY_I64 = np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# helpers
#
# The bodies live in repro.graphblas.kernels (one implementation per tier:
# _numpy always, _compiled when numba is available); these thin wrappers
# dispatch to whichever tier is active so a tier switch takes effect
# everywhere at once.  Signatures and output contracts are part of the
# public surface — tests and combblas.spmv import them directly.
# ----------------------------------------------------------------------

def _segment_reduce(values: np.ndarray, seg_ids: np.ndarray, monoid: Monoid):
    """Reduce *values* grouped by sorted *seg_ids* with the monoid.

    Returns ``(unique_ids, reduced)``.  See
    :func:`repro.graphblas.kernels._numpy.segment_reduce`.
    """
    return _kernels.impl().segment_reduce(values, seg_ids, monoid)


def reduce_by_rows(
    values: np.ndarray, rows: np.ndarray, monoid: Monoid, nrows: int
) -> Tuple[np.ndarray, np.ndarray, str]:
    """Reduce *values* by **unsorted** *rows*; returns ``(idx, vals, path)``.

    ``path`` is ``"packed"`` (the single-sort ``row·bound + value`` key
    fast path for min/max over non-negative ints — LACC's add monoid) or
    ``"sorted"`` for the caller's obs span.  See
    :func:`repro.graphblas.kernels._numpy.reduce_by_rows`.
    """
    return _kernels.impl().reduce_by_rows(values, rows, monoid, nrows)


def gather_multiply(semiring: Semiring, a_vals: np.ndarray, u_vals: np.ndarray):
    """Semiring multiply with the Select2nd/First short-circuits.

    ``second``-kind multiplies (Select2nd, ANY) are pure gathers — the
    result *is* the vector value, no arithmetic and no copies; ``first``
    returns the matrix value.  Only generic operators pay a ufunc call.
    """
    return _kernels.impl().gather_multiply(semiring, a_vals, u_vals)


def _merge_union(
    ai: np.ndarray, av: np.ndarray, bi: np.ndarray, bv: np.ndarray, op: BinaryOp, dtype
):
    """Union-merge two sorted sparse patterns, combining overlaps with *op*."""
    return _kernels.impl().merge_union(ai, av, bi, bv, op, dtype)


def _merge_disjoint(
    ai: np.ndarray, av: np.ndarray, bi: np.ndarray, bv: np.ndarray, dtype
):
    """Merge two sorted sparse patterns with disjoint index sets, O(total)."""
    return _kernels.impl().merge_disjoint(ai, av, bi, bv, dtype)


def _lookup_sorted(sorted_idx: np.ndarray, idx: np.ndarray):
    """``(hit, pos)``: membership of *idx* in the sorted unique array."""
    return _kernels.impl().lookup_sorted(sorted_idx, idx)


def _in_sorted(sorted_idx: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return _kernels.impl().in_sorted(sorted_idx, idx)


def _intersect_sorted(ai: np.ndarray, bi: np.ndarray):
    """Intersection of two sorted unique index arrays.

    Returns ``(common, a_pos, b_pos)`` like ``np.intersect1d(...,
    return_indices=True)`` but without re-sorting the concatenation.
    """
    return _kernels.impl().intersect_sorted(ai, bi)


# ----------------------------------------------------------------------
# the masked write
# ----------------------------------------------------------------------

def _masked_write(
    w: Vector,
    t_idx: np.ndarray,
    t_vals: np.ndarray,
    mask,
    accum: Optional[BinaryOp],
    desc: Descriptor,
    region: Optional[np.ndarray] = None,
    mask_obj: Optional[Mask] = None,
    allow: Optional[np.ndarray] = None,
) -> Vector:
    """Apply the standard GraphBLAS mask/accumulate/replace write to *w*.

    *region* (``GrB_assign``'s index list, sorted unique) limits the write:
    outside it *w* keeps its entries regardless of the mask (ignored under
    ``GrB_REPLACE``, matching assign's replace semantics).  *allow* is an
    optional precomputed dense allow bitmap (``mxv`` shares the one its
    kernels used).  Dispatches to a sorted-merge over stored entries when
    the output is empty or sparse (O(nvals)) and to the dense formulation
    otherwise.
    """
    m = mask_obj if mask_obj is not None else desc.wrap(mask)
    if _FORCE_WRITE_PATH == "sparse":
        use_sparse = True
    elif _FORCE_WRITE_PATH == "dense":
        use_sparse = False
    else:
        use_sparse = w.size > 0 and (
            w.nvals == 0
            or (
                w.mode == "sparse"
                and (w.nvals + t_idx.size) < SPARSE_WRITE_MAX_FRACTION * w.size
            )
        )
    if use_sparse:
        return _masked_write_sparse(w, t_idx, t_vals, m, accum, desc, region, allow)
    return _masked_write_dense(w, t_idx, t_vals, m, accum, desc, region, allow)


def _masked_write_sparse(
    w: Vector,
    t_idx: np.ndarray,
    t_vals: np.ndarray,
    m: Mask,
    accum: Optional[BinaryOp],
    desc: Descriptor,
    region: Optional[np.ndarray] = None,
    allow: Optional[np.ndarray] = None,
) -> Vector:
    """Sorted-merge write over stored entries only — O(nvals), never Θ(n).

    The mask is evaluated pointwise at Z's and W's stored indices
    (:meth:`Mask.allow_at`), the survivors of each side are disjoint by
    construction, and the result is installed in place.
    """
    def allow_at(idx: np.ndarray) -> np.ndarray:
        if allow is not None:
            return allow[idx]
        return m.allow_at(idx, w.size)

    if accum is not None:
        wi, wv = w.sparse_arrays()
        z_idx, z_vals = _merge_union(
            wi, wv, t_idx, np.asarray(t_vals).astype(w.dtype), accum, w.dtype
        )
    else:
        z_idx = t_idx
        z_vals = np.asarray(t_vals).astype(w.dtype, copy=False)

    keep_z = allow_at(z_idx)
    if region is not None and not desc.replace:
        keep_z &= _in_sorted(region, z_idx)
    zi, zv = z_idx[keep_z], z_vals[keep_z]

    if desc.replace:
        # W = Z ∩ allow: everything outside the mask is deleted too
        w._set_sparse(zi, zv)
        return w

    wi, wv = w.sparse_arrays()
    aw = allow_at(wi)
    if region is not None:
        aw &= _in_sorted(region, wi)
    keep_w = ~aw
    ki, kv = wi[keep_w], wv[keep_w]
    out_i, out_v = _merge_disjoint(ki, kv, zi, zv, w.dtype)
    w._set_sparse(out_i, out_v)
    return w


def _masked_write_dense(
    w: Vector,
    t_idx: np.ndarray,
    t_vals: np.ndarray,
    m: Mask,
    accum: Optional[BinaryOp],
    desc: Descriptor,
    region: Optional[np.ndarray] = None,
    allow: Optional[np.ndarray] = None,
) -> Vector:
    """Dense formulation of the write (full values/present arrays, Θ(n))."""
    if allow is None:
        allow = m.allow(w.size)
    if region is not None and not desc.replace:
        # restrict the write region to the named indices: positions
        # outside `region` keep their current w entries regardless of
        # the mask
        reg = np.zeros(w.size, dtype=bool)
        reg[region] = True
        allow = allow & reg
    if accum is not None:
        wi, wv = w.sparse_arrays()
        z_idx, z_vals = _merge_union(
            wi, wv, t_idx, np.asarray(t_vals).astype(w.dtype), accum, w.dtype
        )
    else:
        z_idx, z_vals = t_idx, np.asarray(t_vals).astype(w.dtype, copy=False)

    # Dense formulation of: W = (Z ∩ allow) ∪ (W ∩ ¬allow)  [∪ nothing if replace]
    w_vals, w_present = w.dense_arrays()
    new_vals = w_vals.copy() if w.mode == "dense" else w_vals
    new_present = w_present.copy() if w.mode == "dense" else w_present
    if desc.replace:
        # W = Z ∩ allow: everything outside the mask is deleted too
        new_present = np.zeros_like(new_present)
    else:
        # inside the mask, W becomes exactly Z: clear then write
        new_present[allow] = False
    if z_idx.size:
        sel = allow[z_idx]
        zi, zv = z_idx[sel], z_vals[sel]
        new_vals[zi] = zv
        new_present[zi] = True
    w._set_dense(new_vals, new_present)
    return w


def _as_index_array(indices: IndexArray, bound: int, what: str) -> Optional[np.ndarray]:
    """Validate an explicit index list (``None`` means ``GrB_ALL``)."""
    if indices is None:
        return None
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"{what} indices must be one-dimensional")
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        raise IndexError(f"{what} index out of range [0, {bound})")
    return idx


# ----------------------------------------------------------------------
# matrix-vector product
# ----------------------------------------------------------------------

def mxv(
    w: Vector,
    mask,
    accum: Optional[BinaryOp],
    semiring: Semiring,
    A: Matrix,
    u: Vector,
    desc: Descriptor = NULL,
) -> Vector:
    """``GrB_mxv``: ``w⟨mask⟩ = accum(w, A ⊕.⊗ u)``.

    Dispatches to SpMV (row streaming) when *u* is dense-ish and SpMSpV
    (column gather, work ∝ active edges) when sparse — the crossover the
    paper exploits once components start converging.  A restrictive mask is
    pushed down into the kernels: masked-out output rows are skipped
    *before* the gather, so masked products are never computed.  The chosen
    kernel is recorded as the span's ``path`` attribute.
    """
    if A.ncols != u.size:
        raise ValueError(f"A is {A.nrows}x{A.ncols} but u has size {u.size}")
    if A.nrows != w.size:
        raise ValueError(f"A is {A.nrows}x{A.ncols} but w has size {w.size}")
    with _obs().span("mxv", "graphblas") as span:
        m = desc.wrap(mask)
        allow = None          # dense allow bitmap, if materialised
        allowed_rows = None   # sorted allowed output rows, if enumerated
        if MASK_PUSHDOWN and (m.vector is not None or m.complement):
            allowed_rows = m.allow_sparse(A.nrows)
            if allowed_rows is None:
                allow = m.allow(A.nrows)
                allowed_rows = np.flatnonzero(allow)
        dense_input = u.density > SPMSPV_DENSITY_THRESHOLD
        if span:
            span.add("nvals_in", u.nvals)
        if dense_input:
            if (
                allowed_rows is not None
                and allowed_rows.size <= MASKED_SPMV_ROW_FRACTION * A.nrows
            ):
                t_idx, t_vals, flops, path = _spmv_rows(semiring, A, u, allowed_rows)
            else:
                t_idx, t_vals, flops, path = _spmv(semiring, A, u)
        else:
            t_idx, t_vals, flops, path = _spmspv(
                semiring, A, u, allow=allow, allowed_rows=allowed_rows
            )
        if span:
            span.set("path", path)
            span.set("tier", _kernels.active())
            span.add("flops", flops)
            span.add("nvals_out", int(t_idx.size))
        return _masked_write(
            w, t_idx, t_vals, mask, accum, desc,
            mask_obj=m, allow=allow,
        )


def _spmv(semiring: Semiring, A: Matrix, u: Vector):
    """Row-streaming kernel: work ∝ nnz(A) restricted to present u entries.

    Returns ``(t_idx, t_vals, flops, path)`` where *flops* is the number of
    semiring multiplies performed (the quantity Figure 8 attributes).  See
    :func:`repro.graphblas.kernels._numpy.spmv`.
    """
    return _kernels.impl().spmv(semiring, A, u)


def _spmv_rows(semiring: Semiring, A: Matrix, u: Vector, rows_sel: np.ndarray):
    """Masked row-subset SpMV: stream only the mask-allowed rows.

    Work ∝ the allowed rows' degrees — the paper's masked SpMV over
    unconverged vertices.  *rows_sel* must be sorted.  See
    :func:`repro.graphblas.kernels._numpy.spmv_rows`.
    """
    return _kernels.impl().spmv_rows(semiring, A, u, rows_sel)


def _spmspv(
    semiring: Semiring,
    A: Matrix,
    u: Vector,
    allow: Optional[np.ndarray] = None,
    allowed_rows: Optional[np.ndarray] = None,
):
    """Column-gather kernel: work ∝ sum of degrees of present u entries.

    Returns ``(t_idx, t_vals, flops, path)`` like :func:`_spmv`; a
    pushed-down mask drops masked-out rows before the multiply and the
    reduction.  See :func:`repro.graphblas.kernels._numpy.spmspv`.
    """
    return _kernels.impl().spmspv(semiring, A, u, allow=allow, allowed_rows=allowed_rows)


def mxm(semiring: Semiring, A: Matrix, B: Matrix) -> Matrix:
    """``GrB_mxm`` (unmasked, no accumulator): ``C = A ⊕.⊗ B``.

    The conventional *(plus, times)* semiring takes a SciPy fast path (the
    Markov-clustering expansion step is a plain sparse GEMM); other
    semirings run a column-at-a-time generic kernel built on :func:`mxv`.
    """
    if A.ncols != B.nrows:
        raise ValueError(f"inner dimensions differ: {A.ncols} vs {B.nrows}")
    if semiring.add.op.name == "plus" and semiring.multiply.name == "times":
        c = (A.to_scipy().astype(np.float64) @ B.to_scipy().astype(np.float64)).tocsr()
        c.sort_indices()
        out_dtype = promote(A.dtype, B.dtype)
        return Matrix(
            A.nrows,
            B.ncols,
            c.indptr.astype(np.int64),
            c.indices.astype(np.int64),
            c.data.astype(out_dtype),
        )
    # Generic path: C[:, j] = A ⊕.⊗ B[:, j] for each non-empty column.
    b_indptr, b_rows, b_vals = B.csc_arrays()
    rows_out, cols_out, vals_out = [], [], []
    for j in range(B.ncols):
        lo, hi = b_indptr[j], b_indptr[j + 1]
        if lo == hi:
            continue
        col = Vector.sparse(B.nrows, b_rows[lo:hi], b_vals[lo:hi])
        out = Vector.empty(A.nrows, promote(A.dtype, B.dtype))
        mxv(out, None, None, semiring, A, col)
        oi, ov = out.sparse_arrays()
        rows_out.append(oi)
        cols_out.append(np.full(oi.size, j, dtype=np.int64))
        vals_out.append(ov)
    if not rows_out:
        return Matrix.from_edges(A.nrows, B.ncols, [], [], values=np.empty(0))
    return Matrix.from_edges(
        A.nrows,
        B.ncols,
        np.concatenate(rows_out),
        np.concatenate(cols_out),
        np.concatenate(vals_out),
    )


# ----------------------------------------------------------------------
# element-wise operations
# ----------------------------------------------------------------------

def ewise_mult(
    w: Vector,
    mask,
    accum: Optional[BinaryOp],
    op: Union[BinaryOp, Semiring],
    u: Vector,
    v: Vector,
    desc: Descriptor = NULL,
) -> Vector:
    """``GrB_eWiseMult``: apply *op* on the **intersection** of patterns.

    The two stored patterns are already sorted, so the intersection is a
    searchsorted probe of the smaller into the larger — no re-sort.
    """
    if u.size != v.size or u.size != w.size:
        raise ValueError("eWiseMult operands must have equal size")
    if isinstance(op, Semiring):
        op = op.multiply
    with _obs().span("ewise_mult", "graphblas") as span:
        ui, uv = u.sparse_arrays()
        vi, vv = v.sparse_arrays()
        common, u_pos, v_pos = _intersect_sorted(ui, vi)
        out_dtype = np.bool_ if op.bool_result else promote(u.dtype, v.dtype)
        t_vals = np.asarray(op(uv[u_pos], vv[v_pos])).astype(out_dtype)
        if span:
            span.add("nvals_in", int(ui.size + vi.size))
            span.add("nvals_out", int(common.size))
            span.add("flops", int(common.size))
        return _masked_write(w, common, t_vals, mask, accum, desc)


# ----------------------------------------------------------------------
# extract / assign
# ----------------------------------------------------------------------

def extract(
    w: Vector,
    mask,
    accum: Optional[BinaryOp],
    u: Vector,
    indices: IndexArray,
    desc: Descriptor = NULL,
) -> Vector:
    """``GrB_extract`` (vector variant): ``w⟨mask⟩ = u[indices]``.

    ``indices=None`` means ``GrB_ALL``.  Result position *k* holds
    ``u[indices[k]]`` when that element is stored, else nothing.  The
    GraphBLAS transcription of LACC in ``repro.core.lacc_lagraph`` reads
    grandparents with it: ``gf = f[f]`` passes the parent values as the
    index list (Algorithms 5 and 6).  A sparse *u* is probed with
    searchsorted lookups instead of being densified.
    """
    idx = _as_index_array(indices, u.size, "extract")
    with _obs().span("extract", "graphblas") as span:
        if idx is None:
            if w.size != u.size:
                raise ValueError("GrB_ALL extract requires w.size == u.size")
            t_idx, t_vals = u.sparse_arrays()
            if span:
                span.add("nvals_in", int(t_idx.size))
                span.add("nvals_out", int(t_idx.size))
                span.add("flops", int(t_idx.size))
            return _masked_write(w, t_idx.copy(), t_vals.copy(), mask, accum, desc)
        if w.size != idx.size:
            raise ValueError(f"w.size {w.size} != number of extract indices {idx.size}")
        if u.mode == "sparse":
            ui, uvals = u.sparse_arrays()
            hit, pos = _lookup_sorted(ui, idx)
            t_idx = np.flatnonzero(hit)
            t_vals = uvals[pos[hit]]
        else:
            u_vals, u_present = u.dense_arrays()
            hit = u_present[idx]
            t_idx = np.flatnonzero(hit)
            t_vals = u_vals[idx[hit]]
        if span:
            span.add("nvals_in", int(idx.size))
            span.add("nvals_out", int(t_idx.size))
            span.add("flops", int(idx.size))
        return _masked_write(w, t_idx, t_vals, mask, accum, desc)


def assign(
    w: Vector,
    mask,
    accum: Optional[BinaryOp],
    u: Vector,
    indices: IndexArray,
    desc: Descriptor = NULL,
) -> Vector:
    """``GrB_assign`` (vector variant): ``w⟨mask⟩[indices] = u``.

    Only positions named by *indices* are touched; the mask is over *w*'s
    index space.  With duplicate target indices the last stored element of
    *u* wins (matching a sequential scatter).  LACC's hooking step is this
    primitive: ``f[f_h] = f_n`` scatters new parents onto the star roots.
    """
    idx = _as_index_array(indices, w.size, "assign")
    with _obs().span("assign", "graphblas") as span:
        if idx is None:
            if u.size != w.size:
                raise ValueError("GrB_ALL assign requires u.size == w.size")
            ui, uv = u.sparse_arrays()
            t_idx, t_vals = ui.copy(), uv.copy()
            region = None
        else:
            if u.size != idx.size:
                raise ValueError(
                    f"u.size {u.size} != number of assign indices {idx.size}"
                )
            ui, uv = u.sparse_arrays()
            if ui.size == 0:
                t_idx, t_vals = ui, uv
            else:
                targets = idx[ui]
                order = np.argsort(targets, kind="stable")
                t_sorted = targets[order]
                v_sorted = uv[order]
                last = np.r_[t_sorted[1:] != t_sorted[:-1], True]
                t_idx, t_vals = t_sorted[last], v_sorted[last]
            region = unique_sorted(idx)
        if span:
            span.add("nvals_in", int(ui.size))
            span.add("nvals_out", int(t_idx.size))
            span.add("flops", int(t_idx.size))
        return _masked_write(w, t_idx, t_vals, mask, accum, desc, region=region)


def assign_scalar(
    w: Vector,
    mask,
    accum: Optional[BinaryOp],
    value,
    indices: IndexArray,
    desc: Descriptor = NULL,
) -> Vector:
    """``GrB_assign`` scalar variant: ``w⟨mask⟩[indices] = value``.

    Unlike the vector variant, the scalar is written to *every* named
    position allowed by the mask (starcheck uses this to flag nonstars).
    """
    idx = _as_index_array(indices, w.size, "assign")
    with _obs().span("assign_scalar", "graphblas") as span:
        if idx is None:
            idx = np.arange(w.size, dtype=np.int64)
            region = None  # GrB_ALL: the region does not restrict anything
        else:
            idx = unique_sorted(idx)
            region = idx
        t_vals = np.full(idx.size, value, dtype=w.dtype)
        if span:
            span.add("nvals_in", int(idx.size))
            span.add("nvals_out", int(idx.size))
            span.add("flops", int(idx.size))
        return _masked_write(w, idx, t_vals, mask, accum, desc, region=region)


def reduce_matrix(monoid: Monoid, A: Matrix, axis: int = 1) -> Vector:
    """``GrB_reduce`` matrix→vector: fold rows (axis=1) or columns (axis=0)."""
    if axis == 1:
        idx, vals = _segment_reduce(A.values, A.coo_rows(), monoid)
        return Vector.sparse(A.nrows, idx, vals)
    if axis == 0:
        indptr, rowids, vals = A.csc_arrays()
        cols = np.repeat(np.arange(A.ncols, dtype=np.int64), np.diff(indptr))
        idx, out = _segment_reduce(vals, cols, monoid)
        return Vector.sparse(A.ncols, idx, out)
    raise ValueError("axis must be 0 (columns) or 1 (rows)")
