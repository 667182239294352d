"""2D block-distributed sparse matrices (CombBLAS style).

A :class:`DistMatrix` wraps a symmetric adjacency
:class:`~repro.graphblas.Matrix` with a ``√p × √p``
:class:`~repro.mpisim.grid.ProcessGrid`, the §V-B load-balancing random
permutation, and pre-computed per-(rank, column) entry counts used by the
SpMV/SpMSpV cost accounting.

The *values* of every operation are computed by the (tested) serial
substrate — the simulator executes the identical algorithm, so results are
bit-identical to a serial run; what this layer adds is exact per-rank
work/word/message counting priced by the α–β model (see
``DESIGN.md`` §4 for the execution model).
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.graphblas import DCSC, Matrix
from repro.mpisim import collectives
from repro.mpisim.costmodel import CostModel
from repro.mpisim.grid import ProcessGrid
from repro.obs.tracer import current as _obs

if TYPE_CHECKING:
    from scipy import sparse as sp

__all__ = ["DistMatrix"]


def _relabelled(A: Matrix, perm: np.ndarray) -> Matrix:
    """*A* with vertex *v* renamed ``perm[v]``, rebuilt from the pairs of
    its strict upper triangle (a boolean pattern without self-loops).  The
    row ids and mask are freed before the second gather, so the peak is
    the build's: about twice the result."""
    rows = np.repeat(np.arange(A.nrows, dtype=np.int64), A.row_degrees())
    upper = A.indices > rows
    a, b = perm[rows[upper]], A.indices[upper]
    del rows, upper
    b = perm[b]
    return Matrix._undirected(A.nrows, a, b)


def _block_counts(A: Matrix, grid: ProcessGrid) -> sp.csr_matrix:
    """Stored entries of symmetric *A* per (rank, column): a ``p × n`` CSR.

    Column *c* holds row *c*'s entries, sorted, and entry *(r, c)* lives
    on rank ``block_row(r)·side + block_col(c)``, so the ranks of one
    column come in runs.  The run lengths are the counts, at most
    ``min(nnz, √p·n)`` of them.
    """
    from scipy import sparse as sp

    ptr = A.indptr
    owner = A.indices // grid.block  # block row; ids < n keep it < side
    owner *= grid.side
    col_block_start = ptr[np.minimum(np.arange(grid.side + 1) * grid.block, A.nrows)]
    owner += np.repeat(np.arange(grid.side), np.diff(col_block_start))
    run = np.empty(owner.size, dtype=bool)
    run[:1] = True
    np.not_equal(owner[1:], owner[:-1], out=run[1:])
    run[ptr[:-1][ptr[:-1] < owner.size]] = True  # each column starts a run
    starts = np.flatnonzero(run)
    return sp.csc_matrix(
        (np.diff(starts, append=owner.size), owner[starts],
         np.searchsorted(starts, ptr)),
        shape=(grid.nprocs, A.nrows),
    ).tocsr()


class DistMatrix:
    """An adjacency matrix distributed over a square process grid.

    Parameters
    ----------
    A:
        Symmetric boolean adjacency matrix.  Only its strict upper
        triangle is read: the permuted copy :attr:`A` stores both
        directions of each edge as a boolean pattern, without self-loops.
    grid:
        The process grid (must be square; CombBLAS limitation the paper
        inherits, §VI-A).
    permute:
        Apply the random symmetric row+column permutation CombBLAS uses to
        load-balance blocks (§V-B).  The permutation is pure relabelling,
        so component structure is preserved; labels are mapped back by
        :meth:`to_original_labels`.
    seed:
        Permutation seed.
    """

    def __init__(
        self,
        A: Matrix,
        grid: ProcessGrid,
        permute: bool = True,
        seed: int = 0,
    ):
        if A.nrows != A.ncols:
            raise ValueError("adjacency matrix must be square")
        if grid.n != A.nrows:
            raise ValueError(
                f"grid built for n={grid.n} but matrix has {A.nrows} rows"
            )
        self.grid = grid
        self.n = A.nrows
        if permute and self.n > 1:
            rng = np.random.default_rng(seed)
            self.perm = rng.permutation(self.n).astype(np.int64)
        else:
            self.perm = np.arange(self.n, dtype=np.int64)
        self.inv_perm = np.empty_like(self.perm)
        self.inv_perm[self.perm] = np.arange(self.n, dtype=np.int64)

        self.A = _relabelled(A, self.perm)
        self._block_counts = _block_counts(self.A, grid)
        self.edges_per_rank = np.asarray(self._block_counts.sum(axis=1)).ravel()
        # local blocks in CombBLAS's DCSC format (per-rank storage model)
        self._local_blocks: Optional[dict] = None

    # ------------------------------------------------------------------
    @property
    def nvals(self) -> int:
        return self.A.nvals

    @property
    def rows(self) -> np.ndarray:
        """Row id of every stored entry of :attr:`A` (CSR order)."""
        return self.A.coo_rows()

    @property
    def cols(self) -> np.ndarray:
        """Column id of every stored entry of :attr:`A` (CSR order)."""
        return self.A.indices

    @cached_property
    def edge_owner(self) -> np.ndarray:
        """Rank owning every stored entry of :attr:`A` (CSR order)."""
        return self.grid.edge_owner(self.rows, self.cols)

    def local_block(self, rank: int) -> DCSC:
        """The DCSC submatrix rank owns (built lazily, cached).

        Row/column ids are local to the block, as in CombBLAS.
        """
        if self._local_blocks is None:
            self._local_blocks = {}
        if rank not in self._local_blocks:
            br, bc = self.grid.coords(rank)
            mask = self.edge_owner == rank
            r = self.rows[mask] - br * self.grid.block
            c = self.cols[mask] - bc * self.grid.block
            self._local_blocks[rank] = DCSC.from_coo(
                self.grid.block, self.grid.block, r, c, np.ones(r.size, dtype=bool)
            )
        return self._local_blocks[rank]

    def load_imbalance(self) -> float:
        """max/mean edges per rank — ≈1 after random permutation."""
        mean = self.edges_per_rank.mean()
        return float(self.edges_per_rank.max() / mean) if mean else 1.0

    def to_original_labels(self, labels_permuted: np.ndarray) -> np.ndarray:
        """Map labels computed in permuted space back to input vertex ids."""
        # vertex v (original) is perm[v] in permuted space; its label is a
        # permuted vertex id, mapped back through inv_perm
        return self.inv_perm[labels_permuted[self.perm]]

    def to_permuted_parents(self, parents_original: np.ndarray) -> np.ndarray:
        """Map a parent vector from original into permuted vertex space —
        the inverse of :meth:`to_original_labels`, used when resuming a
        distributed run from a checkpoint snapshotted in original space."""
        out = np.empty(self.n, dtype=np.int64)
        out[self.perm] = self.perm[np.asarray(parents_original, dtype=np.int64)]
        return out

    def to_permuted_bitmap(self, bitmap_original: np.ndarray) -> np.ndarray:
        """Map a per-vertex boolean bitmap into permuted vertex space."""
        return np.asarray(bitmap_original, dtype=bool)[self.inv_perm]

    # ------------------------------------------------------------------
    # cost accounting for GrB_mxv (§V-A)
    # ------------------------------------------------------------------
    def charge_mxv(
        self,
        cost: CostModel,
        active_cols: Optional[np.ndarray],
        phase: str,
        output_rows_hint: Optional[int] = None,
    ) -> None:
        """Charge one distributed SpMV/SpMSpV.

        Parameters
        ----------
        active_cols:
            Boolean bitmap of stored input-vector entries (in permuted
            vertex space), or ``None`` for a fully dense input.
        output_rows_hint:
            Upper bound on nnz of the unreduced output (defaults to the
            flop count — every product could hit a distinct row).

        Two communication stages (§V-A): an allgather within processor
        columns to assemble the needed input subvector, then a
        reduce-scatter (dense) or sparse all-to-all (sparse) within
        processor rows for the output.
        """
        g = self.grid
        side = g.side
        if active_cols is None:
            flops_rank = int(self.edges_per_rank.max(initial=0))
            gather_words = g.block  # each rank assembles its column block
            out_words = g.block
            dense = True
        else:
            # stored entries per rank in the active columns: one product
            # of the per-(rank, column) counts with the bitmap
            per_rank = self._block_counts @ active_cols
            flops_rank = int(per_rank.max(initial=0))
            if flops_rank == 0:  # no stored entry in an active column
                return
            # input entries per column block = words each rank in that
            # column group receives during the allgather
            per_col_block = np.add.reduceat(
                active_cols, np.arange(0, self.n, g.block), dtype=np.int64
            )
            gather_words = int(per_col_block.max(initial=0))
            nnz_in = int(per_col_block.sum())
            dense = nnz_in / max(self.n, 1) > 0.1  # CombBLAS's SpMV/SpMSpV switch
            out_words = min(
                flops_rank if output_rows_hint is None else output_rows_hint,
                g.block,
            )

        with _obs().span(
            "mxv", "combblas", path="spmv" if dense else "spmspv"
        ) as span, cost.phase(phase):
            if span:
                span.add("flops", flops_rank)
            # stage 1: allgather within column groups (side ranks each)
            collectives.allgather(cost, side, gather_words / max(side, 1), phase)
            # local multiply
            cost.charge_compute(flops_rank, phase)
            # stage 2: output redistribution within row groups
            if dense:
                collectives.reduce_scatter(cost, side, out_words, phase)
            else:
                collectives.alltoallv_sparse(cost, side, out_words, phase)
                cost.charge_compute(out_words, phase)  # local merge

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistMatrix(n={self.n}, nnz={self.nvals}, grid={self.grid})"
