"""LACC over the literal 2D CombBLAS machinery.

One of four execution models of the same algorithm:

1. :func:`repro.core.lacc` — serial GraphBLAS (the algorithm itself);
2. :func:`repro.core.lacc_dist` — analytic α–β pricing of a 2D run;
3. :func:`repro.core.lacc_spmd` — literal message passing, 1D edge layout;
4. **this module** — literal message passing with the paper's actual data
   distribution: the adjacency matrix on a ``√p × √p`` grid, hooking via
   the real two-stage :func:`repro.combblas.dist_mxv` (column gather →
   block multiply → row routing) on the driver's communicator, vectors
   block-distributed.  Everything but the setup and the hook proposals
   is :mod:`~repro.core.lacc_spmd`'s loop: its request/reply starcheck,
   whose grandparents the shortcut reuses, its hook write, its step spans
   and its convergence allreduce.

Per-rank state only ever moves through the one communicator's
collectives, under its FaultPlan and into the result's ``words_sent``;
the tests pin its parents, iteration count and per-iteration hook and star
counts to serial LACC's.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.combblas.distmatrix import DistMatrix
from repro.combblas.spmv import dist_mxv
from repro.graphblas import semirings as sr
from repro.graphs.generators import EdgeList
from repro.mpisim.backend import make_comm
from repro.mpisim.grid import ProcessGrid

from .lacc import LACCResult
from .lacc_spmd import _Dist, _run
from .snapshot import IterationHook, validate_initial_parents

__all__ = ["lacc_2d"]


def lacc_2d(
    g: EdgeList,
    ranks: int = 4,
    max_iterations: Optional[int] = None,
    faults=None,
    cost=None,
    initial_parents: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    on_iteration: Optional[IterationHook] = None,
) -> LACCResult:
    """Run LACC with the 2D-distributed matrix and literal communication.

    *ranks* must be a perfect square (the CombBLAS grid restriction the
    paper inherits, §VI-A).  An optional :class:`repro.faults.FaultPlan`
    runs every collective through the :class:`SimComm` retry envelope
    (transient faults recover; permanent ones raise
    :class:`repro.faults.CollectiveError`); an optional
    :class:`repro.mpisim.CostModel` (``cost``) prices recovery time.
    *max_iterations* defaults to serial LACC's
    :func:`~repro.core.convergence.iteration_bound`.
    ``initial_parents`` / ``start_iteration`` / ``on_iteration`` are the
    checkpoint-resume hooks of :mod:`repro.core.snapshot`; each iteration
    runs inside an ``iteration`` span so raised
    :class:`~repro.faults.CollectiveError`\\ s carry the iteration number.
    """
    n = g.n
    grid = ProcessGrid(ranks, n)  # validates squareness
    comm = make_comm(ranks, faults=faults, cost=cost)
    A = g.to_matrix()
    dmat = DistMatrix(A, grid, permute=False)

    if initial_parents is not None:
        f0 = validate_initial_parents(initial_parents, n)
    else:
        f0 = np.arange(n, dtype=np.int64)
    dist = _Dist(comm, n)
    f = dist.distribute(f0)
    star = dist.distribute(np.ones(n, dtype=np.int64))

    def hook(conditional: bool):
        """One hooking phase's per-rank ``(roots, proposals)``: each rank
        contributes its block of ``f`` (restricted to nonstars for the
        unconditional hook) to the paper's mxv over *(Select2nd, min)*,
        executed on the 2D grid, and reads its own output block."""
        x = []
        for r in range(ranks):
            local = np.arange(f[r].size) if conditional else np.flatnonzero(star[r] == 0)
            x.append((local, f[r][local]))
        roots, proposals = [], []
        for r, (idx, prop) in enumerate(dist_mxv(dmat, x, sr.SEL2ND_MIN_INT64, dist)):
            fu = f[r][idx]
            fire = star[r][idx] == 1
            fire &= (prop < fu) if conditional else (prop != fu)
            roots.append(fu[fire])
            proposals.append(prop[fire])
        return roots, proposals

    return _run(
        dist, f, star, hook, bool(A.nvals), max_iterations, start_iteration,
        on_iteration, driver="2d", n=n, nnz=A.nvals, ranks=ranks,
        grid_side=grid.side,
    )
