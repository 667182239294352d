"""2D process grids and block ownership maps.

CombBLAS distributes an ``n × n`` matrix over a ``√p × √p`` grid of MPI
processes; processor *P(i, j)* owns the ``(n/√p) × (n/√p)`` block at block
coordinates *(i, j)* (§V).  Vectors are block-distributed over all *p*
processes, aligned so the elements a column group needs during ``GrB_mxv``
live in that group.

:class:`ProcessGrid` packages the ownership arithmetic — which rank owns a
vertex's vector entry, which block an edge falls into — as vectorised maps
the distributed layer's bincount-based cost accounting uses.  The paper
(and CombBLAS) only supports square grids; we enforce the same.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

__all__ = ["ProcessGrid"]


class ProcessGrid:
    """A square ``√p × √p`` process grid over *n* vertices.

    ``distribution`` selects how *vectors* are laid out across the ranks:

    * ``"block"`` — CombBLAS's contiguous blocks (the paper's setting);
    * ``"cyclic"`` — element *i* on rank ``i mod p``.  This is the paper's
      §VII future-work proposal: because conditional hooking concentrates
      parent ids at *small values*, block distribution funnels extract/
      assign requests to the low ranks (Figure 3); a cyclic layout spreads
      consecutive small ids across all ranks.
    """

    def __init__(self, nprocs: int, n: int, distribution: str = "block"):
        if nprocs < 1:
            raise ValueError("need at least one process")
        side = math.isqrt(nprocs)
        if side * side != nprocs:
            raise ValueError(
                f"CombBLAS requires a square process grid; {nprocs} is not a "
                "perfect square (§VI-A: 'we only used square process grids')"
            )
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if distribution not in ("block", "cyclic"):
            raise ValueError("distribution must be 'block' or 'cyclic'")
        self.nprocs = nprocs
        self.side = side
        self.n = n
        self.distribution = distribution
        #: rows/cols of the matrix per block row/column (ceil division)
        self.block = max(-(-n // side), 1)
        #: vector elements per rank under block distribution
        self.vec_block = max(-(-n // nprocs), 1)
        self._local_sizes: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def coords(self, rank: int) -> Tuple[int, int]:
        """Grid coordinates (row, col) of *rank* (row-major numbering)."""
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range")
        return divmod(rank, self.side)

    def rank_of(self, i: int, j: int) -> int:
        return i * self.side + j

    # ------------------------------------------------------------------
    # vectorised ownership maps
    # ------------------------------------------------------------------
    def vec_owner(self, idx: np.ndarray) -> np.ndarray:
        """Rank owning each vector element (per the grid's distribution)."""
        idx = np.asarray(idx, dtype=np.int64)
        if self.distribution == "cyclic":
            return idx % self.nprocs
        return np.minimum(idx // self.vec_block, self.nprocs - 1)

    def vec_counts(self, idx: np.ndarray) -> np.ndarray:
        """Histogram of elements per owning rank — the bincount feeding
        skew detection and Figure 3."""
        return np.bincount(self.vec_owner(idx), minlength=self.nprocs)

    def block_row(self, rows: np.ndarray) -> np.ndarray:
        return np.minimum(np.asarray(rows, dtype=np.int64) // self.block, self.side - 1)

    def block_col(self, cols: np.ndarray) -> np.ndarray:
        return np.minimum(np.asarray(cols, dtype=np.int64) // self.block, self.side - 1)

    def edge_owner(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Rank owning each matrix entry under the 2D block distribution."""
        return self.block_row(rows) * self.side + self.block_col(cols)

    # ------------------------------------------------------------------
    def local_range(self, rank: int) -> Tuple[int, int]:
        """Half-open range of vector indices rank owns under the *block*
        distribution (may be empty).  Cyclic grids have no contiguous
        range; use :meth:`local_size` instead."""
        if self.distribution == "cyclic":
            raise ValueError("cyclic distribution has no contiguous local range")
        lo = min(rank * self.vec_block, self.n)
        hi = min(lo + self.vec_block, self.n)
        return lo, hi

    def local_size(self, rank: int) -> int:
        """Number of vector elements rank owns."""
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range")
        if self.distribution == "cyclic":
            full, rem = divmod(self.n, self.nprocs)
            return full + (1 if rank < rem else 0)
        lo, hi = self.local_range(rank)
        return hi - lo

    def local_sizes(self) -> np.ndarray:
        """Vector elements per rank, for all ranks (cached, read-only):
        :meth:`local_size` of every rank at once."""
        if self._local_sizes is None:
            ranks = np.arange(self.nprocs, dtype=np.int64)
            if self.distribution == "cyclic":
                full, rem = divmod(self.n, self.nprocs)
                sizes = full + (ranks < rem)
            else:
                lo = np.minimum(ranks * self.vec_block, self.n)
                sizes = np.minimum(lo + self.vec_block, self.n) - lo
            sizes.flags.writeable = False
            self._local_sizes = sizes
        return self._local_sizes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessGrid({self.side}x{self.side}, n={self.n}, "
            f"{self.distribution})"
        )
