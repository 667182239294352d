"""Literal 2D-distributed SpMV / SpMSpV over a communicator (§V-A).

:meth:`repro.combblas.distmatrix.DistMatrix.charge_mxv` *prices* the
paper's matrix-vector product; this module *executes* it, with the exact
communication structure §V-A describes.  The input and the output are
block-distributed vectors: rank *r* holds the ``(local offsets, values)``
of its own range ``grid.local_range(r)``, and every byte moves through the
caller's communicator.  :func:`rank_mxv` is one rank's program, and
:func:`dist_mxv` runs it on every rank.

1. **gather** — each processor *column* assembles the piece of the input
   vector its blocks multiply against ("a gather operation to collect the
   missing pieces of the vector"): one ``alltoallv`` in which every rank
   sends its entries of column-block *j* to each rank of processor column
   *j*;
2. **local multiply** — each rank multiplies its DCSC block on the
   *(Select2nd, min)* (or any) semiring;
3. **route** — within each processor *row*, partial outputs travel back
   to the block distribution as (index, value) pairs fused in one array
   per destination, one ``alltoallv``, and each owner merge-reduces what
   it received — CombBLAS's SpMSpV "all-to-all followed by a local merge".

The result is checked against the serial :func:`repro.graphblas.ops.mxv`
in the test suite for every grid size — this is the ground truth the
analytic cost formulas stand on.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graphblas.ops import gather_multiply, reduce_by_rows
from repro.graphblas.semiring import Semiring

from .distmatrix import DistMatrix

__all__ = ["dist_mxv", "rank_mxv"]

#: a sparse block-distributed vector: rank r's (local offsets, values)
SparseBlocks = List[Tuple[np.ndarray, np.ndarray]]


def _fused(idx: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """One message carrying (index, value) pairs: indices, then values."""
    return np.concatenate([idx, np.asarray(vals, dtype=np.int64)])


def _unfused(row: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """The indices and the values of the :func:`_fused` messages *row*."""
    halves = [np.split(msg, 2) for msg in row]
    return (np.concatenate([h[0] for h in halves]),
            np.concatenate([h[1] for h in halves]))


def rank_mxv(dmat: DistMatrix, rank: int, x, semiring: Semiring):
    """Rank *rank*'s program for ``y = A ⊕.⊗ x``: a generator that yields
    its send row of each of the two ``alltoallv``\\ s and gets back its
    receive row (:meth:`~repro.mpisim.envelope.CommBase.run_ranks` steps
    it).  *x* is the rank's ``(local offsets, int64 values)`` under
    ``dmat.grid``'s block vector distribution; it returns its block of
    ``y`` the same way."""
    grid = dmat.grid
    blk = grid.block
    i, j = grid.coords(rank)

    # --- stage 1: gather within processor columns ----------------------
    # send the entries of column-block c (global ids) to every rank of
    # processor column c, which concatenates them in rank order
    li, lv = x
    gi = np.asarray(li, dtype=np.int64) + grid.local_range(rank)[0]
    col = gi // blk
    sels = [np.flatnonzero(col == c) for c in range(grid.side)]
    msgs = [_fused(gi[s], np.asarray(lv)[s]) for s in sels]
    gathered = yield [msgs[grid.coords(q)[1]] for q in range(grid.nprocs)]

    # --- stages 2 and 3: multiply the block, route rows to owners ------
    gidx, gval = _unfused(gathered)
    rows, avals, src = dmat.local_block(rank).columns_of(gidx - j * blk)
    if rows.size:
        # Select2nd-kind multiplies gather the vector values directly;
        # the per-row reduce shares the serial kernels' packed-key
        # min/max fast path (local row ids are < grid.block)
        prods = gather_multiply(semiring, avals, gval[src])
        rows, vals, _ = reduce_by_rows(prods, rows, semiring.add, blk)
    else:
        vals = np.empty(0, dtype=np.int64)
    grows = rows + i * blk
    owners = grid.vec_owner(grows)
    sels = [np.flatnonzero(owners == o) for o in range(grid.nprocs)]
    routed = yield [_fused(grows[s] - grid.local_range(o)[0], vals[s])
                    for o, s in enumerate(sels)]
    idx, vals = _unfused(routed)
    if idx.size:
        idx, vals, _ = reduce_by_rows(vals, idx, semiring.add, grid.local_size(rank))
    return idx, vals


def dist_mxv(
    dmat: DistMatrix, x: SparseBlocks, semiring: Semiring, comm
) -> SparseBlocks:
    """Compute ``y = A ⊕.⊗ x`` with literal per-rank data movement.

    ``x[r]`` is rank *r*'s ``(local offsets, int64 values)`` under
    ``dmat.grid``'s block vector distribution; ``y`` is returned the same
    way.  Both are in the **permuted** vertex space of *dmat* — callers
    working in original coordinates should permute with ``dmat.perm`` /
    ``dmat.inv_perm``.  Every rank runs :func:`rank_mxv` through
    *comm*'s :meth:`~repro.mpisim.envelope.CommBase.run_ranks`, which
    carries the two ``alltoallv``\\ s.
    """
    if len(x) != dmat.grid.nprocs:
        raise ValueError(f"x has {len(x)} blocks, the grid has {dmat.grid.nprocs} ranks")
    return comm.run_ranks(
        [rank_mxv(dmat, r, xr, semiring) for r, xr in enumerate(x)]
    )[0]
