"""The compiled kernel tier: Numba ``@njit`` loops for the hot paths.

Every public function here matches the signature *and* the exact output
contract (values, indices, dtypes, flops, path strings) of its
counterpart in :mod:`._numpy` — the equivalence suite in
``tests/graphblas/test_kernel_tiers.py`` runs both tiers side by side
over the full masked-write matrix and asserts identity.  Where the NumPy
tier pays an allocation chain (gather → repeat → argsort → reduceat),
these kernels run a single fused loop: the SpMV/SpMSpV kernels stream
CSR/CSC adjacency and fold the semiring add in registers, the merges are
two-pointer walks, and the packed-key reduction sorts once and reads the
group extrema off the segment boundaries.

Operator dispatch is by small-integer opcode so one compiled
specialisation serves every supported monoid/multiply::

    min→0  max→1  plus→2  times→3  lxor→6  second/any→7  first→8
    lor→1 (max on bool)   land→0 (min on bool)

Operators or dtype combinations outside that table (comparison ops,
python-function monoids, mixed-dtype generic multiplies) fall back to the
NumPy tier per call, so the compiled tier is *always* safe to select.

Import is safe without numba: ``@njit`` degrades to the identity
decorator and the kernels run as pure-Python loops.  The registry in
:mod:`repro.graphblas.kernels` only *registers* this tier when numba
actually imported (``HAVE_NUMBA``), but the degraded module lets the
dispatch logic be unit-tested anywhere.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import _numpy

__all__ = [
    "TIER_NAME",
    "HAVE_NUMBA",
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

TIER_NAME = "compiled"

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # degrade to pure Python so the module stays importable
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # noqa: D103 - identity decorator shim
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)

# Operator opcodes.  lor/land ride on max/min (identical on bools, the only
# dtype they are eligible for); 7 is keep-second (ANY), 8 keep-first.
_OP_MIN, _OP_MAX, _OP_PLUS, _OP_TIMES, _OP_NE, _OP_SECOND, _OP_FIRST = (
    0, 1, 2, 3, 6, 7, 8,
)

_OPCODES = {
    "min": _OP_MIN,
    "max": _OP_MAX,
    "plus": _OP_PLUS,
    "times": _OP_TIMES,
    "lor": _OP_MAX,
    "land": _OP_MIN,
    "lxor": _OP_NE,
    "second": _OP_SECOND,
    "any": _OP_SECOND,
    "first": _OP_FIRST,
}

_BOOL_ONLY = ("lor", "land", "lxor")
_NUMERIC_ONLY = ("min", "max", "plus", "times")


def _opcode(op_name: str, dtype, fold: bool = False) -> Optional[int]:
    """Opcode for *op_name* over *dtype*, or ``None`` → NumPy fallback.

    lor/land/lxor compile only on bools (on ints ``plus`` ≠ ``or``);
    min/max/plus/times only on int/uint/float (``plus`` on bools is
    logical-or under NumPy's ufunc rules, not arithmetic); the
    select ops (second/any/first) never touch values so any dtype goes.

    With ``fold=True`` (the op reduces a whole segment, not a single
    pair) float plus/times are additionally ineligible: NumPy's
    ``ufunc.reduceat`` folds floats pairwise while a compiled loop folds
    sequentially, and the two round differently — bit-for-bit
    equivalence with the reference tier is the contract here.
    """
    code = _OPCODES.get(op_name)
    if code is None:
        return None
    kind = np.dtype(dtype).kind
    if op_name in _BOOL_ONLY:
        return code if kind == "b" else None
    if op_name in _NUMERIC_ONLY:
        if op_name in ("plus", "times") and fold:
            return code if kind in "iu" else None
        return code if kind in "iuf" else None
    return code


def _c(a, dtype=None):
    """Contiguous view/copy for a jit kernel argument."""
    if dtype is None:
        return np.ascontiguousarray(a)
    return np.ascontiguousarray(a, dtype=dtype)


# ----------------------------------------------------------------------
# jit primitives
# ----------------------------------------------------------------------

@njit(cache=True)
def _apply(code, x, y):
    """Fold one operator application; all branches type-check on int/uint/
    float/bool so a single specialisation serves every opcode."""
    if code == 0:
        return min(x, y)
    if code == 1:
        return max(x, y)
    if code == 2:
        return x + y
    if code == 3:
        return x * y
    if code == 6:
        return x != y
    if code == 8:
        return x
    return y  # 7: keep second


@njit(cache=True)
def _contains_sorted(a, x):
    lo, hi = 0, a.size
    while lo < hi:
        mid = (lo + hi) >> 1
        if a[mid] < x:
            lo = mid + 1
        else:
            hi = mid
    return lo < a.size and a[lo] == x


@njit(cache=True)
def _k_lookup_sorted(sorted_idx, idx):
    n = sorted_idx.size
    m = idx.size
    hit = np.zeros(m, np.bool_)
    pos = np.zeros(m, np.int64)
    for i in range(m):
        x = idx[i]
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi) >> 1
            if sorted_idx[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        pos[i] = lo
        if lo < n and sorted_idx[lo] == x:
            hit[i] = True
    return hit, pos


@njit(cache=True)
def _k_merge_union(ai, av, bi, bv, code, out_v):
    na, nb = ai.size, bi.size
    out_i = np.empty(na + nb, np.int64)
    i = j = k = 0
    while i < na and j < nb:
        a, b = ai[i], bi[j]
        if a < b:
            out_i[k] = a
            out_v[k] = av[i]
            i += 1
        elif b < a:
            out_i[k] = b
            out_v[k] = bv[j]
            j += 1
        else:
            out_i[k] = a
            out_v[k] = _apply(code, av[i], bv[j])
            i += 1
            j += 1
        k += 1
    while i < na:
        out_i[k] = ai[i]
        out_v[k] = av[i]
        i += 1
        k += 1
    while j < nb:
        out_i[k] = bi[j]
        out_v[k] = bv[j]
        j += 1
        k += 1
    return out_i[:k], out_v[:k]


@njit(cache=True)
def _k_merge_disjoint(ai, av, bi, bv, out_v):
    na, nb = ai.size, bi.size
    out_i = np.empty(na + nb, np.int64)
    i = j = k = 0
    while i < na and j < nb:
        if ai[i] < bi[j]:
            out_i[k] = ai[i]
            out_v[k] = av[i]
            i += 1
        else:
            out_i[k] = bi[j]
            out_v[k] = bv[j]
            j += 1
        k += 1
    while i < na:
        out_i[k] = ai[i]
        out_v[k] = av[i]
        i += 1
        k += 1
    while j < nb:
        out_i[k] = bi[j]
        out_v[k] = bv[j]
        j += 1
        k += 1
    return out_i, out_v


@njit(cache=True)
def _k_segment_reduce(values, seg_ids, code):
    n = seg_ids.size
    out_i = np.empty(n, np.int64)
    out_v = np.empty(n, values.dtype)
    k = -1
    for t in range(n):
        s = seg_ids[t]
        if k < 0 or s != out_i[k]:
            k += 1
            out_i[k] = s
            out_v[k] = values[t]
        else:
            out_v[k] = _apply(code, out_v[k], values[t])
    return out_i[: k + 1], out_v[: k + 1]


@njit(cache=True)
def _k_reduce_packed(values, rows, bound, keep_first, out_v):
    n = rows.size
    key = np.empty(n, np.int64)
    for t in range(n):
        key[t] = rows[t] * bound + np.int64(values[t])
    key.sort()
    out_i = np.empty(n, np.int64)
    k = -1
    for t in range(n):
        r = key[t] // bound
        if k < 0 or r != out_i[k]:
            k += 1
            out_i[k] = r
            out_v[k] = key[t] - r * bound  # first key in segment = row min
        elif not keep_first:
            out_v[k] = key[t] - r * bound  # last key in segment = row max
    return out_i[: k + 1], out_v[: k + 1]


# --- fused CSR SpMV (one specialisation per multiply kind) -------------

@njit(cache=True)
def _k_spmv_second(indptr, indices, u_vals, u_present, add_code):
    nrows = indptr.size - 1
    out_i = np.empty(nrows, np.int64)
    out_v = np.empty(nrows, u_vals.dtype)
    k = 0
    flops = 0
    for r in range(nrows):
        have = False
        for p in range(indptr[r], indptr[r + 1]):
            c = indices[p]
            if not u_present[c]:
                continue
            flops += 1
            if have:
                out_v[k] = _apply(add_code, out_v[k], u_vals[c])
            else:
                out_i[k] = r
                out_v[k] = u_vals[c]
                have = True
        if have:
            k += 1
    return out_i[:k], out_v[:k], flops


@njit(cache=True)
def _k_spmv_first(indptr, indices, a_vals, u_present, add_code):
    nrows = indptr.size - 1
    out_i = np.empty(nrows, np.int64)
    out_v = np.empty(nrows, a_vals.dtype)
    k = 0
    flops = 0
    for r in range(nrows):
        have = False
        for p in range(indptr[r], indptr[r + 1]):
            c = indices[p]
            if not u_present[c]:
                continue
            flops += 1
            if have:
                out_v[k] = _apply(add_code, out_v[k], a_vals[p])
            else:
                out_i[k] = r
                out_v[k] = a_vals[p]
                have = True
        if have:
            k += 1
    return out_i[:k], out_v[:k], flops


@njit(cache=True)
def _k_spmv_generic(indptr, indices, a_vals, u_vals, u_present, mul_code, add_code):
    nrows = indptr.size - 1
    out_i = np.empty(nrows, np.int64)
    out_v = np.empty(nrows, a_vals.dtype)
    k = 0
    flops = 0
    for r in range(nrows):
        have = False
        for p in range(indptr[r], indptr[r + 1]):
            c = indices[p]
            if not u_present[c]:
                continue
            flops += 1
            prod = _apply(mul_code, a_vals[p], u_vals[c])
            if have:
                out_v[k] = _apply(add_code, out_v[k], prod)
            else:
                out_i[k] = r
                out_v[k] = prod
                have = True
        if have:
            k += 1
    return out_i[:k], out_v[:k], flops


# --- masked row-subset SpMV --------------------------------------------

@njit(cache=True)
def _k_spmv_rows_second(indptr, indices, u_vals, u_present, rows_sel, add_code):
    nsel = rows_sel.size
    out_i = np.empty(nsel, np.int64)
    out_v = np.empty(nsel, u_vals.dtype)
    k = 0
    flops = 0
    total = 0
    for s in range(nsel):
        r = rows_sel[s]
        have = False
        for p in range(indptr[r], indptr[r + 1]):
            total += 1
            c = indices[p]
            if not u_present[c]:
                continue
            flops += 1
            if have:
                out_v[k] = _apply(add_code, out_v[k], u_vals[c])
            else:
                out_i[k] = r
                out_v[k] = u_vals[c]
                have = True
        if have:
            k += 1
    return out_i[:k], out_v[:k], flops, total


@njit(cache=True)
def _k_spmv_rows_first(indptr, indices, a_vals, u_present, rows_sel, add_code):
    nsel = rows_sel.size
    out_i = np.empty(nsel, np.int64)
    out_v = np.empty(nsel, a_vals.dtype)
    k = 0
    flops = 0
    total = 0
    for s in range(nsel):
        r = rows_sel[s]
        have = False
        for p in range(indptr[r], indptr[r + 1]):
            total += 1
            c = indices[p]
            if not u_present[c]:
                continue
            flops += 1
            if have:
                out_v[k] = _apply(add_code, out_v[k], a_vals[p])
            else:
                out_i[k] = r
                out_v[k] = a_vals[p]
                have = True
        if have:
            k += 1
    return out_i[:k], out_v[:k], flops, total


@njit(cache=True)
def _k_spmv_rows_generic(
    indptr, indices, a_vals, u_vals, u_present, rows_sel, mul_code, add_code
):
    nsel = rows_sel.size
    out_i = np.empty(nsel, np.int64)
    out_v = np.empty(nsel, a_vals.dtype)
    k = 0
    flops = 0
    total = 0
    for s in range(nsel):
        r = rows_sel[s]
        have = False
        for p in range(indptr[r], indptr[r + 1]):
            total += 1
            c = indices[p]
            if not u_present[c]:
                continue
            flops += 1
            prod = _apply(mul_code, a_vals[p], u_vals[c])
            if have:
                out_v[k] = _apply(add_code, out_v[k], prod)
            else:
                out_i[k] = r
                out_v[k] = prod
                have = True
        if have:
            k += 1
    return out_i[:k], out_v[:k], flops, total


@njit(cache=True)
def _k_spmv_rows_minmax(indptr, indices, u_vals, u_present, rows_sel):
    nsel = rows_sel.size
    out_i = np.empty(nsel, np.int64)
    out_min = np.empty(nsel, u_vals.dtype)
    out_max = np.empty(nsel, u_vals.dtype)
    k = 0
    for s in range(nsel):
        r = rows_sel[s]
        have = False
        for p in range(indptr[r], indptr[r + 1]):
            c = indices[p]
            if not u_present[c]:
                continue
            v = u_vals[c]
            if not have:
                out_i[k] = r
                out_min[k] = v
                out_max[k] = v
                have = True
            elif v < out_min[k]:
                out_min[k] = v
            elif v > out_max[k]:
                out_max[k] = v
        if have:
            k += 1
    return out_i[:k], out_min[:k], out_max[:k]


# --- SpMSpV column gather (mask filter fused; reduction done after) ----
# mask_mode: 0 = unmasked, 1 = dense allow bitmap, 2 = sorted allowed rows

@njit(cache=True)
def _k_spmspv_gather_second(indptr, rowids, ui, uv, mask_mode, allow, allowed_rows):
    total = 0
    for t in range(ui.size):
        total += indptr[ui[t] + 1] - indptr[ui[t]]
    rows = np.empty(total, np.int64)
    prods = np.empty(total, uv.dtype)
    k = 0
    for t in range(ui.size):
        c = ui[t]
        v = uv[t]
        for p in range(indptr[c], indptr[c + 1]):
            r = rowids[p]
            if mask_mode == 1:
                if not allow[r]:
                    continue
            elif mask_mode == 2:
                if not _contains_sorted(allowed_rows, r):
                    continue
            rows[k] = r
            prods[k] = v
            k += 1
    return rows[:k], prods[:k], total


@njit(cache=True)
def _k_spmspv_gather_first(indptr, rowids, a_vals, ui, mask_mode, allow, allowed_rows):
    total = 0
    for t in range(ui.size):
        total += indptr[ui[t] + 1] - indptr[ui[t]]
    rows = np.empty(total, np.int64)
    prods = np.empty(total, a_vals.dtype)
    k = 0
    for t in range(ui.size):
        c = ui[t]
        for p in range(indptr[c], indptr[c + 1]):
            r = rowids[p]
            if mask_mode == 1:
                if not allow[r]:
                    continue
            elif mask_mode == 2:
                if not _contains_sorted(allowed_rows, r):
                    continue
            rows[k] = r
            prods[k] = a_vals[p]
            k += 1
    return rows[:k], prods[:k], total


@njit(cache=True)
def _k_spmspv_gather_generic(
    indptr, rowids, a_vals, ui, uv, mul_code, mask_mode, allow, allowed_rows
):
    total = 0
    for t in range(ui.size):
        total += indptr[ui[t] + 1] - indptr[ui[t]]
    rows = np.empty(total, np.int64)
    prods = np.empty(total, a_vals.dtype)
    k = 0
    for t in range(ui.size):
        c = ui[t]
        v = uv[t]
        for p in range(indptr[c], indptr[c + 1]):
            r = rowids[p]
            if mask_mode == 1:
                if not allow[r]:
                    continue
            elif mask_mode == 2:
                if not _contains_sorted(allowed_rows, r):
                    continue
            rows[k] = r
            prods[k] = _apply(mul_code, a_vals[p], v)
            k += 1
    return rows[:k], prods[:k], total


# ----------------------------------------------------------------------
# public kernel API (wrappers: eligibility check → jit kernel or fallback)
# ----------------------------------------------------------------------

def lookup_sorted(sorted_idx: np.ndarray, idx: np.ndarray):
    if sorted_idx.size == 0:
        return np.zeros(idx.shape, dtype=bool), np.zeros(idx.shape, dtype=np.int64)
    idx = np.asarray(idx)
    if idx.ndim != 1:
        return _numpy.lookup_sorted(sorted_idx, idx)
    return _k_lookup_sorted(_c(sorted_idx, np.int64), _c(idx, np.int64))


def in_sorted(sorted_idx: np.ndarray, idx: np.ndarray) -> np.ndarray:
    return lookup_sorted(sorted_idx, idx)[0]


def intersect_sorted(ai: np.ndarray, bi: np.ndarray):
    if ai.size == 0 or bi.size == 0:
        return _EMPTY_I64, _EMPTY_I64, _EMPTY_I64
    if ai.size > bi.size:
        common, b_pos, a_pos = intersect_sorted(bi, ai)
        return common, a_pos, b_pos
    hit, pos = _k_lookup_sorted(_c(bi, np.int64), _c(ai, np.int64))
    a_pos = np.flatnonzero(hit)
    return ai[hit], a_pos, pos[hit]


def merge_union(
    ai: np.ndarray, av: np.ndarray, bi: np.ndarray, bv: np.ndarray, op, dtype
):
    if ai.size == 0:
        return bi.copy(), bv.astype(dtype, copy=True)
    if bi.size == 0:
        return ai.copy(), av.astype(dtype, copy=True)
    code = _opcode(op.name, dtype)
    if code is None:
        return _numpy.merge_union(ai, av, bi, bv, op, dtype)
    # the NumPy tier combines overlaps *after* casting both sides to the
    # output dtype; replicate by casting up front
    out_v = np.empty(ai.size + bi.size, dtype=dtype)
    return _k_merge_union(
        _c(ai, np.int64), _c(av.astype(dtype, copy=False)),
        _c(bi, np.int64), _c(bv.astype(dtype, copy=False)),
        code, out_v,
    )


def merge_disjoint(
    ai: np.ndarray, av: np.ndarray, bi: np.ndarray, bv: np.ndarray, dtype
):
    if ai.size == 0:
        return bi, bv
    if bi.size == 0:
        return ai, av
    out_v = np.empty(ai.size + bi.size, dtype=dtype)
    return _k_merge_disjoint(
        _c(ai, np.int64), _c(av), _c(bi, np.int64), _c(bv), out_v
    )


def segment_reduce(values: np.ndarray, seg_ids: np.ndarray, monoid):
    if seg_ids.size == 0:
        return seg_ids[:0], values[:0]
    code = _opcode(monoid.op.name, values.dtype, fold=True)
    if code is None:
        return _numpy.segment_reduce(values, seg_ids, monoid)
    return _k_segment_reduce(_c(values), _c(seg_ids, np.int64), code)


def reduce_by_rows(values: np.ndarray, rows: np.ndarray, monoid, nrows: int):
    if rows.size == 0:
        return rows[:0], values[:0], "sorted"
    opname = monoid.op.name
    if opname in ("min", "max") and values.dtype.kind in "iu":
        vmin = int(values.min())
        if vmin >= 0:
            bound = int(values.max()) + 1
            if int(nrows) * bound < 2 ** 62:
                out_v = np.empty(rows.size, dtype=values.dtype)
                idx, vals = _k_reduce_packed(
                    _c(values), _c(rows, np.int64), bound, opname == "min", out_v
                )
                return idx, vals, "packed"
    code = _opcode(opname, values.dtype, fold=True)
    if code is None:
        return _numpy.reduce_by_rows(values, rows, monoid, nrows)
    order = np.argsort(rows, kind="stable")
    idx, vals = _k_segment_reduce(
        _c(values[order]), _c(rows[order], np.int64), code
    )
    return idx, vals, "sorted"


def gather_multiply(semiring, a_vals: np.ndarray, u_vals: np.ndarray):
    # pure gathers / one ufunc call — nothing a compiled loop can beat
    return _numpy.gather_multiply(semiring, a_vals, u_vals)


def _mxv_codes(semiring, a_dtype, u_dtype):
    """``(kind, mul_code, add_code, prod_dtype)`` or ``None`` → fallback.

    The generic multiply compiles only when both operand dtypes agree, so
    the fused product carries exactly the dtype NumPy promotion would
    produce; Select2nd/First never read the other operand so any dtype
    combination goes.
    """
    kind = semiring.multiply_kind
    if kind == "second":
        prod_dtype = u_dtype
        mul_code = _OP_SECOND
    elif kind == "first":
        prod_dtype = a_dtype
        mul_code = _OP_FIRST
    else:
        if np.dtype(a_dtype) != np.dtype(u_dtype):
            return None
        prod_dtype = a_dtype
        mul_code = _opcode(semiring.multiply.name, prod_dtype)
        if mul_code is None:
            return None
    add_code = _opcode(semiring.add.op.name, prod_dtype, fold=True)
    if add_code is None:
        return None
    return kind, mul_code, add_code, prod_dtype


def spmv(semiring, A, u):
    codes = _mxv_codes(semiring, A.values.dtype, u.dtype)
    if codes is None:
        return _numpy.spmv(semiring, A, u)
    kind, mul_code, add_code, _ = codes
    u_vals, u_present = u.dense_arrays()
    indptr, indices = _c(A.indptr, np.int64), _c(A.indices, np.int64)
    if kind == "second":
        t_idx, t_vals, flops = _k_spmv_second(
            indptr, indices, _c(u_vals), _c(u_present), add_code
        )
    elif kind == "first":
        t_idx, t_vals, flops = _k_spmv_first(
            indptr, indices, _c(A.values), _c(u_present), add_code
        )
    else:
        t_idx, t_vals, flops = _k_spmv_generic(
            indptr, indices, _c(A.values), _c(u_vals), _c(u_present),
            mul_code, add_code,
        )
    return t_idx, t_vals, int(flops), "spmv"


def spmv_rows(semiring, A, u, rows_sel: np.ndarray):
    codes = _mxv_codes(semiring, A.values.dtype, u.dtype)
    if codes is None:
        return _numpy.spmv_rows(semiring, A, u, rows_sel)
    kind, mul_code, add_code, _ = codes
    u_vals, u_present = u.dense_arrays()
    indptr, indices = _c(A.indptr, np.int64), _c(A.indices, np.int64)
    rows_sel = _c(rows_sel, np.int64)
    if kind == "second":
        t_idx, t_vals, flops, total = _k_spmv_rows_second(
            indptr, indices, _c(u_vals), _c(u_present), rows_sel, add_code
        )
    elif kind == "first":
        t_idx, t_vals, flops, total = _k_spmv_rows_first(
            indptr, indices, _c(A.values), _c(u_present), rows_sel, add_code
        )
    else:
        t_idx, t_vals, flops, total = _k_spmv_rows_generic(
            indptr, indices, _c(A.values), _c(u_vals), _c(u_present),
            rows_sel, mul_code, add_code,
        )
    if total == 0:
        # match the NumPy tier's early return, which types the empty
        # values array after the *input vector*, not the product
        return _EMPTY_I64, np.empty(0, dtype=u.dtype), 0, "spmv_masked"
    return t_idx, t_vals, int(flops), "spmv_masked"


def spmv_rows_minmax(
    A,
    u_vals: np.ndarray,
    u_present: Optional[np.ndarray],
    rows_sel: Optional[np.ndarray],
):
    if u_vals.dtype.kind not in "iu":
        return _numpy.spmv_rows_minmax(A, u_vals, u_present, rows_sel)
    if u_present is None:
        u_present = np.ones(u_vals.size, dtype=bool)
    if rows_sel is None:
        rows_sel = np.arange(A.nrows, dtype=np.int64)
    return _k_spmv_rows_minmax(
        _c(A.indptr, np.int64), _c(A.indices, np.int64),
        _c(u_vals), _c(u_present), _c(rows_sel, np.int64),
    )


def spmspv(
    semiring,
    A,
    u,
    allow: Optional[np.ndarray] = None,
    allowed_rows: Optional[np.ndarray] = None,
):
    ui, uv = u.sparse_arrays()
    if ui.size == 0:
        return ui[:0], uv[:0], 0, "spmspv"
    codes = _mxv_codes(semiring, A.values.dtype, u.dtype)
    if codes is None:
        return _numpy.spmspv(semiring, A, u, allow=allow, allowed_rows=allowed_rows)
    kind, mul_code, _, _ = codes
    indptr, rowids, vals = A.csc_arrays()
    indptr, rowids = _c(indptr, np.int64), _c(rowids, np.int64)
    masked = allow is not None or allowed_rows is not None
    if allow is not None:
        mask_mode, m_allow, m_rows = 1, _c(allow, bool), _EMPTY_I64
    elif allowed_rows is not None:
        mask_mode, m_allow, m_rows = 2, _EMPTY_BOOL, _c(allowed_rows, np.int64)
    else:
        mask_mode, m_allow, m_rows = 0, _EMPTY_BOOL, _EMPTY_I64
    ui_c = _c(ui, np.int64)
    if kind == "second":
        rows, prods, total = _k_spmspv_gather_second(
            indptr, rowids, ui_c, _c(uv), mask_mode, m_allow, m_rows
        )
    elif kind == "first":
        rows, prods, total = _k_spmspv_gather_first(
            indptr, rowids, _c(vals), ui_c, mask_mode, m_allow, m_rows
        )
    else:
        rows, prods, total = _k_spmspv_gather_generic(
            indptr, rowids, _c(vals), ui_c, _c(uv), mul_code,
            mask_mode, m_allow, m_rows,
        )
    if total == 0:
        return ui[:0], uv[:0], 0, "spmspv"
    flops = int(rows.size)
    t_idx, t_vals, rpath = reduce_by_rows(prods, rows, semiring.add, A.nrows)
    path = "spmspv_sel2nd" if (kind == "second" and rpath == "packed") else "spmspv"
    if masked:
        path += "_masked"
    return t_idx, t_vals, flops, path
