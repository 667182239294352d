"""Literal 2D-distributed SpMV / SpMSpV over a communicator (§V-A).

:meth:`repro.combblas.distmatrix.DistMatrix.charge_mxv` *prices* the
paper's matrix-vector product; this module *executes* it, with the exact
communication structure §V-A describes.  The input and the output are
block-distributed vectors: rank *r* holds the ``(local offsets, values)``
of its own range ``grid.local_range(r)``, and every byte moves through the
caller's communicator.

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

__all__ = ["dist_mxv"]

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


def dist_mxv(
    dmat: DistMatrix, x: SparseBlocks, semiring: Semiring, comm
) -> SparseBlocks:
    """Compute ``y = A ⊕.⊗ x`` with literal per-rank data movement.

    ``x[r]`` is rank *r*'s ``(local offsets, int64 values)`` under
    ``dmat.grid``'s block vector distribution; ``y`` is returned the same
    way.  Both are in the **permuted** vertex space of *dmat* — callers
    working in original coordinates should permute with ``dmat.perm`` /
    ``dmat.inv_perm``.  *comm* carries the two ``alltoallv``\\ s; anything
    with a communicator's ``alltoallv`` serves.
    """
    grid = dmat.grid
    p, side, blk = grid.nprocs, grid.side, grid.block
    if len(x) != p:
        raise ValueError(f"x has {len(x)} blocks, the grid has {p} ranks")

    # --- stage 1: gather within processor columns ----------------------
    # rank r sends the entries of column-block j (global ids) to every
    # rank of processor column j, which concatenates them in rank order
    send = [[None] * p for _ in range(p)]
    for r, (li, lv) in enumerate(x):
        gi = np.asarray(li, dtype=np.int64) + grid.local_range(r)[0]
        col = gi // blk
        for j in range(side):
            sel = np.flatnonzero(col == j)
            msg = _fused(gi[sel], np.asarray(lv)[sel])
            for i in range(side):
                send[r][grid.rank_of(i, j)] = msg
    gathered = comm.alltoallv(send)  # gathered[q][r]

    # --- stages 2 and 3: multiply each block, route rows to owners -----
    send = [[None] * p for _ in range(p)]
    for rank in range(p):
        i, j = grid.coords(rank)
        gidx, gval = _unfused(gathered[rank])
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
        for o in range(p):
            sel = np.flatnonzero(owners == o)
            send[rank][o] = _fused(grows[sel] - grid.local_range(o)[0], vals[sel])
    routed = comm.alltoallv(send)  # routed[o][rank]

    out = []
    for o in range(p):
        idx, vals = _unfused(routed[o])
        if idx.size:
            idx, vals, _ = reduce_by_rows(vals, idx, semiring.add, grid.local_size(o))
        out.append((idx, vals))
    return out
