"""``GrB_Vector``: a sparse vector with a dense fast path.

The paper's key optimisation is that LACC's vectors "start out dense and get
sparse rapidly" (§IV-B): once components converge their vertices become
inactive and vanish from the working vectors.  To let the operation kernels
pick the best algorithm we store a vector in one of two modes and switch
automatically:

* **dense** mode: a full ``values`` array plus a boolean ``present`` bitmap
  (an element may be absent even in dense mode — GraphBLAS vectors are
  always logically sparse);
* **sparse** mode: sorted ``indices`` and matching ``values`` arrays,
  storage proportional to ``nvals``.

Mode switching uses a density threshold with hysteresis so repeated
borderline updates do not thrash.  All public behaviour is representation
independent; tests exercise both modes for every operation.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple, Union

import numpy as np

from .sorting import run_starts
from .types import normalize_dtype, promote

__all__ = ["Vector"]

# Above this density a vector prefers dense storage; below DENSIFY/4 a dense
# vector sparsifies.  Chosen to match the SpMV/SpMSpV dispatch crossover.
_DENSIFY_AT = 0.10
_SPARSIFY_AT = _DENSIFY_AT / 4


class Vector:
    """A one-dimensional GraphBLAS object of fixed logical size.

    Construct with :meth:`sparse`, :meth:`dense`, :meth:`full`, or
    :meth:`empty`; mutate through the operations in
    :mod:`repro.graphblas.ops` or the convenience methods here.
    """

    __slots__ = ("size", "dtype", "_mode", "_values", "_present", "_indices", "_nvals")

    def __init__(self, size: int, dtype=np.int64):
        if size < 0:
            raise ValueError(f"vector size must be >= 0, got {size}")
        self.size = int(size)
        self.dtype = normalize_dtype(dtype)
        self._mode = "sparse"
        self._indices = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=self.dtype)
        self._present: Optional[np.ndarray] = None
        self._nvals: Optional[int] = None  # cached popcount of _present

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, size: int, dtype=np.int64) -> "Vector":
        """A vector with no stored elements."""
        return cls(size, dtype)

    @classmethod
    def sparse(
        cls,
        size: int,
        indices: Iterable[int],
        values: Union[Iterable, int, float, bool],
        dtype=None,
        dedup: str = "last",
    ) -> "Vector":
        """Build from ``(indices, values)`` tuples.

        ``values`` may be a scalar (broadcast).  Duplicate indices are
        resolved by *dedup*: ``"last"`` keeps the final occurrence (matching
        ``GrB_Vector_build`` with the SECOND dup operator), ``"min"``/
        ``"plus"`` combine duplicates with that operator, ``"error"`` raises.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("indices must be one-dimensional")
        if np.isscalar(values) or (isinstance(values, np.ndarray) and values.ndim == 0):
            if dtype is None:
                dtype = np.asarray(values).dtype
            vals = np.full(idx.shape, values, dtype=normalize_dtype(dtype))
        else:
            vals = np.asarray(values)
            if dtype is not None:
                vals = vals.astype(normalize_dtype(dtype), copy=False)
            if vals.shape != idx.shape:
                raise ValueError(
                    f"indices shape {idx.shape} != values shape {vals.shape}"
                )
        if idx.size and (idx.min() < 0 or idx.max() >= size):
            raise IndexError(f"index out of range for vector of size {size}")
        v = cls(size, vals.dtype)
        if idx.size:
            order = np.argsort(idx, kind="stable")
            idx, vals = idx[order], vals[order]
            if idx.size > 1 and np.any(idx[1:] == idx[:-1]):
                idx, vals = _dedup(idx, vals, dedup)
        v._indices, v._values = idx, np.ascontiguousarray(vals)
        v._maybe_densify()
        return v

    @classmethod
    def dense(cls, values: Iterable, present: Optional[np.ndarray] = None) -> "Vector":
        """Build from a full array; *present* marks stored positions."""
        vals = np.ascontiguousarray(values)
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        v = cls(vals.size, vals.dtype)
        v._mode = "dense"
        v._values = vals.copy()
        if present is None:
            v._present = np.ones(vals.size, dtype=bool)
            v._nvals = vals.size
        else:
            present = np.asarray(present, dtype=bool)
            if present.shape != vals.shape:
                raise ValueError("present bitmap shape mismatch")
            v._present = present.copy()
        v._indices = None
        return v

    @classmethod
    def full(cls, size: int, value, dtype=None) -> "Vector":
        """All *size* positions stored, each equal to *value*."""
        if dtype is None:
            dtype = np.asarray(value).dtype
        return cls.dense(np.full(size, value, dtype=normalize_dtype(dtype)))

    @classmethod
    def iota(cls, size: int, dtype=np.int64) -> "Vector":
        """``v[i] = i`` — LACC's initial parent vector (every vertex its own
        parent, i.e. *n* single-vertex stars)."""
        return cls.dense(np.arange(size, dtype=normalize_dtype(dtype)))

    # ------------------------------------------------------------------
    # representation management
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """Current storage mode: ``"dense"`` or ``"sparse"``."""
        return self._mode

    @property
    def nvals(self) -> int:
        """Number of stored elements (``GrB_Vector_nvals``).

        Cached in dense mode so per-op dispatch (``density``) never pays a
        Θ(n) popcount on an unchanged vector.
        """
        if self._mode == "sparse":
            return int(self._indices.size)
        if self._nvals is None:
            self._nvals = int(np.count_nonzero(self._present))
        return self._nvals

    @property
    def density(self) -> float:
        """``nvals / size`` (0 for a zero-length vector)."""
        return self.nvals / self.size if self.size else 0.0

    def sparse_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted ``(indices, values)`` of the stored elements (copies not
        guaranteed — treat as read-only)."""
        if self._mode == "sparse":
            return self._indices, self._values
        idx = np.flatnonzero(self._present)
        return idx, self._values[idx]

    def dense_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(values, present)`` full arrays.  Values at absent positions are
        unspecified — always consult *present*.  Treat as read-only."""
        if self._mode == "dense":
            return self._values, self._present
        vals = np.zeros(self.size, dtype=self.dtype)
        present = np.zeros(self.size, dtype=bool)
        vals[self._indices] = self._values
        present[self._indices] = True
        return vals, present

    def present_array(self) -> np.ndarray:
        """Dense boolean bitmap of stored positions (read-only)."""
        if self._mode == "dense":
            return self._present
        present = np.zeros(self.size, dtype=bool)
        present[self._indices] = True
        return present

    def _set_sparse(self, indices: np.ndarray, values: np.ndarray) -> None:
        """Install sorted, deduplicated sparse content in place (internal).

        This is the write-side plumbing of the sparse masked-write path in
        :mod:`repro.graphblas.ops`: kernels merge stored entries and hand
        the result straight to the vector, O(nvals) end to end.  The arrays
        are adopted, not copied — callers must pass freshly built arrays.
        """
        self._mode = "sparse"
        self._indices = indices
        self._values = values.astype(self.dtype, copy=False)
        self._present = None
        self._nvals = None
        self._maybe_densify()

    def _set_dense(self, values: np.ndarray, present: np.ndarray) -> None:
        """Install dense content (internal)."""
        self._mode = "dense"
        self._values = values.astype(self.dtype, copy=False)
        self._present = present
        self._indices = None
        self._nvals = None
        self._maybe_sparsify()

    def _maybe_densify(self) -> None:
        if (
            self._mode == "sparse"
            and self.size
            and self._indices.size / self.size >= _DENSIFY_AT
        ):
            nstored = int(self._indices.size)
            vals, present = self.dense_arrays()
            self._mode = "dense"
            self._values, self._present = vals, present
            self._indices = None
            self._nvals = nstored

    def _maybe_sparsify(self) -> None:
        if (
            self._mode == "dense"
            and self.size
            and self.nvals / self.size <= _SPARSIFY_AT
        ):
            idx, vals = self.sparse_arrays()
            self._mode = "sparse"
            self._indices, self._values = idx, vals
            self._present = None
            self._nvals = None

    # ------------------------------------------------------------------
    # element access & mutation
    # ------------------------------------------------------------------
    def get(self, i: int, default=None):
        """Value at index *i*, or *default* when no element is stored."""
        if not 0 <= i < self.size:
            raise IndexError(f"index {i} out of range [0, {self.size})")
        if self._mode == "dense":
            return self._values[i].item() if self._present[i] else default
        pos = np.searchsorted(self._indices, i)
        if pos < self._indices.size and self._indices[pos] == i:
            return self._values[pos].item()
        return default

    def set(self, i: int, value) -> None:
        """Store ``v[i] = value`` (``GrB_Vector_setElement``)."""
        if not 0 <= i < self.size:
            raise IndexError(f"index {i} out of range [0, {self.size})")
        if self._mode == "dense":
            if self._nvals is not None and not self._present[i]:
                self._nvals += 1
            self._values[i] = value
            self._present[i] = True
            return
        pos = int(np.searchsorted(self._indices, i))
        if pos < self._indices.size and self._indices[pos] == i:
            self._values[pos] = value
        else:
            self._indices = np.insert(self._indices, pos, i)
            self._values = np.insert(self._values, pos, value)
            self._maybe_densify()

    def remove(self, i: int) -> None:
        """Delete the element at *i* if stored (``GrB_Vector_removeElement``)."""
        if not 0 <= i < self.size:
            raise IndexError(f"index {i} out of range [0, {self.size})")
        if self._mode == "dense":
            if self._nvals is not None and self._present[i]:
                self._nvals -= 1
            self._present[i] = False
            self._maybe_sparsify()
            return
        pos = int(np.searchsorted(self._indices, i))
        if pos < self._indices.size and self._indices[pos] == i:
            self._indices = np.delete(self._indices, pos)
            self._values = np.delete(self._values, pos)

    def clear(self) -> None:
        """Remove all stored elements (``GrB_Vector_clear``)."""
        self._mode = "sparse"
        self._indices = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=self.dtype)
        self._present = None
        self._nvals = None

    def extract_tuples(self) -> Tuple[np.ndarray, np.ndarray]:
        """``GrB_Vector_extractTuples``: copies of (indices, values)."""
        idx, vals = self.sparse_arrays()
        return idx.copy(), vals.copy()

    # ------------------------------------------------------------------
    # conversions & comparisons
    # ------------------------------------------------------------------
    def to_numpy(self, fill=0) -> np.ndarray:
        """Dense copy with absent positions set to *fill*."""
        vals, present = self.dense_arrays()
        out = np.full(self.size, fill, dtype=self.dtype)
        out[present] = vals[present]
        return out

    def isequal(self, other: "Vector") -> bool:
        """Same size, same stored pattern, same values (types may differ)."""
        if not isinstance(other, Vector) or self.size != other.size:
            return False
        si, sv = self.sparse_arrays()
        oi, ov = other.sparse_arrays()
        if si.size != oi.size or not np.array_equal(si, oi):
            return False
        common = promote(self.dtype, other.dtype)
        return np.array_equal(sv.astype(common), ov.astype(common))

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        idx, vals = self.sparse_arrays()
        return iter(zip(idx.tolist(), vals.tolist()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Vector(size={self.size}, dtype={self.dtype.name}, "
            f"nvals={self.nvals}, mode={self._mode})"
        )


def _dedup(idx: np.ndarray, vals: np.ndarray, how: str):
    """Collapse duplicate (sorted) indices according to *how*."""
    if how == "error":
        raise ValueError("duplicate indices in build")
    start = np.flatnonzero(run_starts(idx))
    uniq = idx[start]
    if how == "last":
        # For each unique index, take the last occurrence in the stable order.
        end = np.r_[start[1:], idx.size] - 1
        return uniq, vals[end]
    if how == "min":
        return uniq, np.minimum.reduceat(vals, start)
    if how == "plus":
        return uniq, np.add.reduceat(vals, start)
    raise ValueError(f"unknown dedup mode {how!r}")
