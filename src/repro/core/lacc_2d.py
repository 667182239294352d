"""LACC over the literal 2D CombBLAS machinery.

Third execution model, completing the fidelity ladder:

1. :func:`repro.core.lacc` — serial GraphBLAS (the algorithm itself);
2. :func:`repro.core.lacc_dist` — analytic α–β pricing of a 2D run;
3. :func:`repro.core.lacc_spmd` — literal message passing, 1D edge layout;
4. **this module** — literal message passing with the paper's actual data
   distribution: the adjacency matrix on a ``√p × √p`` grid, hooking via
   the real two-stage :func:`repro.combblas.dist_mxv` (column allgather →
   block multiply → row routing), vectors block-distributed.  Everything
   but the setup and the hooks is :mod:`~repro.core.lacc_spmd`'s loop:
   its request/reply starcheck, whose grandparents the shortcut reuses,
   its step spans and its convergence allreduce.

Per-rank state only ever moves through :class:`repro.mpisim.SimComm`
collectives; the tests pin the output to serial LACC and ground truth on
every grid size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.combblas.distmatrix import DistMatrix
from repro.combblas.spmv import dist_mxv
from repro.graphblas import Vector
from repro.graphblas import kernels as _kernels
from repro.graphblas import semirings as sr
from repro.graphblas.monoid import MIN_INT64
from repro.graphs.generators import EdgeList
from repro.mpisim.backend import make_comm
from repro.mpisim.grid import ProcessGrid

from .lacc_spmd import _Dist, _run
from .snapshot import IterationHook, validate_initial_parents

__all__ = ["lacc_2d", "Grid2DResult"]


@dataclass
class Grid2DResult:
    """Output of a 2D literal LACC run."""

    parents: np.ndarray
    n_components: int
    n_iterations: int
    nprocs: int
    grid_side: int
    words_sent: int  # indexing traffic (the mxv moves data internally)
    #: simulated seconds lost to injected faults (backoff/stragglers)
    #: when no cost model was attached to price them properly
    fault_seconds: float = 0.0

    @property
    def labels(self) -> np.ndarray:
        from repro.graphs.validate import canonical_labels

        return canonical_labels(self.parents)


def lacc_2d(
    g: EdgeList,
    nprocs: int = 4,
    max_iterations: int = 10_000,
    faults=None,
    cost=None,
    initial_parents: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    on_iteration: Optional[IterationHook] = None,
) -> Grid2DResult:
    """Run LACC with the 2D-distributed matrix and literal communication.

    *nprocs* must be a perfect square (the CombBLAS grid restriction the
    paper inherits, §VI-A).  An optional :class:`repro.faults.FaultPlan`
    runs every collective through the :class:`SimComm` retry envelope
    (transient faults recover; permanent ones raise
    :class:`repro.faults.CollectiveError`); an optional
    :class:`repro.mpisim.CostModel` (``cost``) prices recovery time.
    ``initial_parents`` / ``start_iteration`` / ``on_iteration`` are the
    checkpoint-resume hooks of :mod:`repro.core.snapshot`; each iteration
    runs inside an ``iteration`` span so raised
    :class:`~repro.faults.CollectiveError`\\ s carry the iteration number.
    """
    n = g.n
    grid = ProcessGrid(nprocs, n)  # validates squareness
    comm = make_comm(nprocs, faults=faults, cost=cost)
    A = g.to_matrix()
    dmat = DistMatrix(A, grid, permute=False)

    if initial_parents is not None:
        f0 = validate_initial_parents(initial_parents, n)
    else:
        f0 = np.arange(n, dtype=np.int64)
    dist = _Dist(comm, n)
    f = dist.distribute(f0)
    star = dist.distribute(np.ones(n, dtype=np.int64))

    def global_vector(restrict_to_nonstars: bool) -> Vector:
        """Assemble the mxv input from per-rank blocks (each rank
        contributes only its own entries, like the SpMV gather's senders)."""
        idx_parts, val_parts = [], []
        for r in range(nprocs):
            if restrict_to_nonstars:
                local = np.flatnonzero(star[r] == 0)
            else:
                local = np.arange(f[r].size)
            idx_parts.append(local + dist.lo(r))
            val_parts.append(f[r][local])
        idx = np.concatenate(idx_parts)
        vals = np.concatenate(val_parts)
        return Vector.sparse(n, idx, vals)

    def hook(conditional: bool) -> int:
        x = global_vector(restrict_to_nonstars=not conditional)
        if x.nvals == 0:
            return 0
        # the paper's mxv over (Select2nd, min), executed on the 2D grid
        fn = dist_mxv(dmat, x, sr.SEL2ND_MIN_INT64)
        fn_vals, fn_present = fn.dense_arrays()
        targets, values = [], []
        for r in range(nprocs):
            lo, hi = dist.lo(r), dist.hi(r)
            pres = fn_present[lo:hi]
            prop = fn_vals[lo:hi]
            is_star = star[r] == 1
            if conditional:
                fire = pres & is_star & (prop < f[r])
            else:
                fire = pres & is_star & (prop != f[r])
            # pre-combine locally: the smallest proposal per root
            roots, proposal, _ = _kernels.impl().reduce_by_rows(
                prop[fire], f[r][fire], MIN_INT64, n
            )
            targets.append(roots)
            values.append(proposal)
        return dist.scatter_min(f, targets, values)

    parents, n_components, iterations = _run(
        dist, f, star, hook, bool(A.nvals), max_iterations, start_iteration,
        on_iteration, driver="2d", n=n, nnz=A.nvals, ranks=nprocs,
        grid_side=grid.side, partition_lambda=dmat.load_imbalance(),
    )
    return Grid2DResult(
        parents=parents,
        n_components=n_components,
        n_iterations=iterations,
        nprocs=nprocs,
        grid_side=grid.side,
        words_sent=dist.words,
        fault_seconds=comm.fault_seconds,
    )
