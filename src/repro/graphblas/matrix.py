"""``GrB_Matrix``: sparse matrices in CSR, with a DCSC variant.

The serial substrate stores matrices in CSR (compressed sparse row) because
``GrB_mxv`` over a dense-ish vector streams rows.  For the sparse-vector
product (SpMSpV) we need column access, so a CSC view is built lazily and
cached; for symmetric matrices (undirected adjacency — LACC's only input)
the CSR arrays double as CSC.

:class:`DCSC` implements CombBLAS's *doubly compressed sparse columns*
(Buluç & Gilbert): on a ``√p × √p`` grid each local block has ``n/√p``
columns but only ``O(nnz)`` of them are non-empty, so the column pointer
array itself is compressed.  The distributed layer
(:mod:`repro.combblas.distmatrix`) stores its local blocks in this format,
and the tests verify it round-trips against CSR.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from .sorting import pack_pairs, run_starts
from .types import BOOL, normalize_dtype

if TYPE_CHECKING:
    from scipy import sparse as sp

__all__ = ["Matrix", "DCSC"]

#: Edges per pass of the adjacency build's loops, which bound its temporaries.
_BUILD_CHUNK = 2 ** 16


def _unique_upper_keys(keys: np.ndarray, a, b, n: int, bits: int) -> int:
    """Write the sorted distinct keys ``min·2^bits + max`` of the non-loop
    pairs ``(a[k], b[k])`` to the front of *keys*; return how many."""
    m = 0
    for s in range(0, a.size, _BUILD_CHUNK):
        lo, hi = a[s:s + _BUILD_CHUNK], b[s:s + _BUILD_CHUNK]
        keep = lo != hi
        if not keep.all():
            lo, hi = lo[keep], hi[keep]
        out = np.minimum(lo, hi, out=keys[m:m + lo.size])
        hi = np.maximum(lo, hi)
        if out.size and (out.min() < 0 or hi.max() >= n):
            raise IndexError("edge endpoint out of range")
        out <<= bits
        out |= hi
        m += out.size
    if 2 * bits > 62:
        raise ValueError(f"{n} vertices do not fit a packed int64 edge key")
    keys[:m].sort()
    kept, last = 0, -1  # keys are non-negative: the first one starts a run
    for s in range(0, m, _BUILD_CHUNK):  # move each run's first key forward
        chunk = keys[s:min(s + _BUILD_CHUNK, m)]
        new = run_starts(chunk)
        new[0] = chunk[0] != last
        last = chunk[-1]
        chunk = chunk[new]
        keys[kept:kept + chunk.size] = chunk
        kept += chunk.size
    return kept


class Matrix:
    """A sparse ``nrows × ncols`` matrix over a GraphBLAS value type.

    Immutable after construction (LACC never mutates the adjacency matrix);
    use the constructors below.
    """

    __slots__ = (
        "nrows", "ncols", "dtype", "indptr", "indices", "values",
        "_csc", "_symmetric", "_degrees", "_coo_rows", "_segment_ids",
    )

    def __init__(
        self,
        nrows: int,
        ncols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        symmetric: Optional[bool] = None,
    ):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if indptr.shape != (nrows + 1,):
            raise ValueError("indptr must have nrows+1 entries")
        if indices.shape != values.shape:
            raise ValueError("indices/values shape mismatch")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.dtype = normalize_dtype(values.dtype)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.values = np.ascontiguousarray(values)
        self._csc: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        self._symmetric = symmetric
        # Immutable-matrix auxiliaries, built lazily and cached so hot
        # kernels (SpMV row ids, degree scoping) never rebuild them per call.
        self._degrees: Optional[np.ndarray] = None
        self._coo_rows: Optional[np.ndarray] = None
        self._segment_ids: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        nrows: int,
        ncols: int,
        rows,
        cols,
        values=True,
        dedup: str = "last",
        symmetric: Optional[bool] = None,
    ) -> "Matrix":
        """Build from COO triples; duplicates resolved per *dedup* (see
        :meth:`Vector.sparse`).  Scalar *values* broadcast."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ValueError("rows/cols shape mismatch")
        if rows.size and (
            rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols
        ):
            raise IndexError("edge endpoint out of range")
        scalar = np.isscalar(values) or (
            isinstance(values, np.ndarray) and values.ndim == 0
        )
        if scalar:
            vals = np.full(rows.shape, values)
        else:
            vals = np.asarray(values)
            if vals.shape != rows.shape:
                raise ValueError("values shape mismatch")
        if rows.size == 0:
            return cls(
                nrows,
                ncols,
                np.zeros(nrows + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.asarray(vals).dtype),
                symmetric=symmetric,
            )
        # Build the CSR arrays natively rather than round-tripping through
        # a float64 SciPy COO, which silently corrupted wide integers
        # (> 2^53) and forced an extra copy for every dtype.  Entries are
        # ordered by one packed row·ncols + col key: a broadcast scalar has
        # no values to carry, so the key is sorted alone; otherwise a
        # stable argsort keeps duplicates in input order for dedup="last".
        key = pack_pairs(rows, cols, nrows, ncols)
        if key is None:
            order = np.lexsort((cols, rows))
            r, c, v = rows[order], cols[order], vals[order]
            key_change = np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])]
        else:
            if scalar:
                key.sort()
                v = vals
            else:
                order = np.argsort(key, kind="stable")
                key, v = key[order], vals[order]
            key_change = run_starts(key)
        if not key_change.all():
            if dedup == "error":
                raise ValueError("duplicate edges in build")
            starts = np.flatnonzero(key_change)
            if dedup == "min":
                v = np.minimum.reduceat(v, starts)
            elif dedup == "plus":
                # dtype pinned: add.reduceat otherwise widens small ints to
                # the platform accumulator (int32 → int64), like np.sum
                v = np.add.reduceat(v, starts, dtype=v.dtype)
            elif dedup == "last":  # last occurrence wins (stable sort order)
                v = v[np.r_[starts[1:], v.size] - 1]
            else:
                raise ValueError(f"unknown dedup mode {dedup!r}")
            if key is None:
                r, c = r[key_change], c[key_change]
            else:
                key = key[key_change]
        if key is not None:
            r, c = np.divmod(key, ncols)
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r, minlength=nrows), out=indptr[1:])
        return cls(
            nrows,
            ncols,
            indptr,
            c,
            np.ascontiguousarray(v),
            symmetric=symmetric,
        )

    @classmethod
    def adjacency(cls, n: int, u, v) -> "Matrix":
        """Boolean adjacency matrix of an undirected graph.

        Self-loops are dropped (they never affect connectivity and the AS
        hooking conditions ignore them) and both directions of every edge
        are stored, as LACC requires.  *u* and *v* are only read; the peak
        is the output plus one sort buffer (:meth:`_undirected`).
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape:
            raise ValueError(
                f"endpoint arrays must have equal length, got {u.shape} vs {v.shape}"
            )
        return cls._undirected(n, u.ravel(), v.ravel())

    @classmethod
    def _undirected(cls, n: int, a: np.ndarray, b: np.ndarray) -> "Matrix":
        """Symmetric boolean CSR of the undirected edges ``{a[k], b[k]}``.

        The endpoints of a pair come in either order and are only read.
        Both triangles share one int64 buffer of *2m* packed
        ``row·2^s + col`` keys; every other temporary is one chunk long.
        The sorted distinct upper keys fill its front, their mirrors
        follow, sorted, and a stable sort (timsort: one linear merge of
        the two runs, whose buffer of one run sets the peak) puts them in
        CSR order.  The buffer shrinks in place to the stored entries.
        The result equals ``from_edges`` over both directions of every edge.
        """
        bits = max(int(n) - 1, 1).bit_length()
        keys = np.empty(2 * a.size, dtype=np.int64)
        m = _unique_upper_keys(keys, a, b, n, bits)
        if 2 * m < keys.size:  # loops or duplicates dropped; no view is alive
            keys.resize(2 * m, refcheck=False)
        col_mask = (1 << bits) - 1
        for s in range(0, m, _BUILD_CHUNK):
            upper = keys[s:min(s + _BUILD_CHUNK, m)]
            lower = np.bitwise_and(upper, col_mask, out=keys[m + s:m + s + upper.size])
            lower <<= bits
            lower |= upper >> bits
        keys[m:].sort()
        keys.sort(kind="stable")  # timsort: one merge of the two runs
        keys &= col_mask
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])  # column = row counts
        return cls(n, n, indptr, keys, np.ones(keys.size, dtype=bool), symmetric=True)

    def to_scipy(self) -> sp.csr_matrix:
        """CSR copy as a SciPy matrix (bool data promoted to int8)."""
        from scipy import sparse as sp

        data = self.values
        if data.dtype == BOOL:
            data = data.astype(np.int8)
        return sp.csr_matrix(
            (data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=(self.nrows, self.ncols),
        )

    # ------------------------------------------------------------------
    # properties & access
    # ------------------------------------------------------------------
    @property
    def nvals(self) -> int:
        """Stored entries (``GrB_Matrix_nvals``)."""
        return int(self.indices.size)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def is_symmetric(self) -> bool:
        """Whether the sparsity pattern+values equal the transpose (cached)."""
        if self._symmetric is None:
            s = self.to_scipy()
            self._symmetric = bool(
                self.nrows == self.ncols and (s != s.T).nnz == 0
            )
        return self._symmetric

    def row_degrees(self) -> np.ndarray:
        """Entries per row — vertex degrees for an adjacency matrix.

        Cached (the matrix is immutable); treat as read-only.
        """
        if self._degrees is None:
            self._degrees = np.diff(self.indptr)
        return self._degrees

    def coo_rows(self) -> np.ndarray:
        """Row id of every stored entry in CSR order, i.e.
        ``np.repeat(np.arange(nrows), row_degrees())``.

        Built on first use and cached; treat as read-only.  Used by
        :meth:`extract_tuples` and ``ops.reduce_matrix``; the SpMV kernels
        take their row segments from ``indptr`` instead.
        """
        if self._coo_rows is None:
            self._coo_rows = np.repeat(
                np.arange(self.nrows, dtype=np.int64), self.row_degrees()
            )
        return self._coo_rows

    def row_segment_ids(self) -> np.ndarray:
        """For every stored entry in CSR order, the position of its row
        among the non-empty rows (``coo_rows()`` when no row is empty).

        Built on first use and cached; treat as read-only.  The NumPy
        kernels' short-row min/max over every row scatters by these ids.
        """
        if self._segment_ids is None:
            lengths = self.row_degrees()
            lengths = lengths[lengths > 0]
            self._segment_ids = np.repeat(
                np.arange(lengths.size, dtype=np.int64), lengths
            )
        return self._segment_ids

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """(column indices, values) of row *i*."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def csc_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, row_indices, values)`` in CSC order, cached.

        For symmetric matrices this is the CSR data itself (no copy).
        """
        if self._symmetric:
            return self.indptr, self.indices, self.values
        if self._csc is None:
            csc = self.to_scipy().tocsc()
            csc.sort_indices()
            self._csc = (
                csc.indptr.astype(np.int64),
                csc.indices.astype(np.int64),
                csc.data.astype(self.dtype),
            )
        return self._csc

    def transpose(self) -> "Matrix":
        """Transposed copy (cheap for symmetric matrices)."""
        if self.is_symmetric:
            return self
        indptr, indices, values = self.csc_arrays()
        return Matrix(self.ncols, self.nrows, indptr, indices, values)

    def extract_tuples(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """COO copies ``(rows, cols, values)`` in row-major order."""
        return self.coo_rows().copy(), self.indices.copy(), self.values.copy()

    def isequal(self, other: "Matrix") -> bool:
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Matrix({self.nrows}x{self.ncols}, dtype={self.dtype.name}, "
            f"nvals={self.nvals})"
        )


class DCSC:
    """Doubly compressed sparse columns — CombBLAS's local block format.

    Stores only the non-empty columns:

    * ``jc[k]``  — column id of the *k*-th non-empty column (sorted),
    * ``cp[k]:cp[k+1]`` — slice of ``ir``/``num`` holding that column,
    * ``ir``     — row ids,
    * ``num``    — values.

    Memory is ``O(nnz + len(jc))`` rather than CSC's ``O(nnz + ncols)``,
    which is what makes hypersparse 2D blocks affordable on large grids
    (§V).
    """

    __slots__ = ("nrows", "ncols", "jc", "cp", "ir", "num")

    def __init__(self, nrows, ncols, jc, cp, ir, num):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.jc = np.ascontiguousarray(jc, dtype=np.int64)
        self.cp = np.ascontiguousarray(cp, dtype=np.int64)
        self.ir = np.ascontiguousarray(ir, dtype=np.int64)
        self.num = np.ascontiguousarray(num)
        if self.cp.shape != (self.jc.size + 1,):
            raise ValueError("cp must have len(jc)+1 entries")
        if self.ir.shape != self.num.shape:
            raise ValueError("ir/num shape mismatch")

    @classmethod
    def from_coo(cls, nrows: int, ncols: int, rows, cols, values) -> "DCSC":
        """Build from COO triples (duplicates must already be resolved)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values)
        key = pack_pairs(cols, rows, ncols, nrows)
        if key is None:
            order = np.lexsort((rows, cols))
        else:
            order = np.argsort(key, kind="stable")
        rows, cols, values = rows[order], cols[order], values[order]
        starts = np.flatnonzero(run_starts(cols))
        jc = cols[starts]
        cp = np.r_[starts, cols.size]
        return cls(nrows, ncols, jc, cp, rows, values)

    @property
    def nvals(self) -> int:
        return int(self.ir.size)

    def columns_of(self, cols: np.ndarray):
        """Vectorised multi-column gather used by SpMSpV.

        Returns ``(rows, vals, src)`` where ``src[k]`` is the position in
        *cols* that produced ``rows[k]`` — i.e. the flattened union of the
        requested columns with provenance, letting the caller apply the
        semiring multiply against the input vector's values.
        """
        cols = np.asarray(cols, dtype=np.int64)
        if self.jc.size == 0 or cols.size == 0:
            return self.ir[:0], self.num[:0], np.empty(0, dtype=np.int64)
        k = np.searchsorted(self.jc, cols)
        hit = (k < self.jc.size) & (self.jc[np.minimum(k, self.jc.size - 1)] == cols)
        k = k[hit]
        src_ids = np.flatnonzero(hit)
        lo, hi = self.cp[k], self.cp[k + 1]
        lengths = hi - lo
        total = int(lengths.sum())
        if total == 0:
            return self.ir[:0], self.num[:0], src_ids[:0]
        # Build a flat gather index: concatenate ranges [lo_i, hi_i).
        out_starts = np.zeros(lengths.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=out_starts[1:])
        flat = np.repeat(lo - out_starts, lengths) + np.arange(total, dtype=np.int64)
        src = np.repeat(src_ids, lengths)
        return self.ir[flat], self.num[flat], src

    def to_matrix(self) -> Matrix:
        """Expand back to a CSR :class:`Matrix` (tests/round-trips)."""
        cols = np.repeat(self.jc, np.diff(self.cp))
        return Matrix.from_edges(self.nrows, self.ncols, self.ir, cols, self.num)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DCSC({self.nrows}x{self.ncols}, nvals={self.nvals}, cols={self.jc.size})"
        )
