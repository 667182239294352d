#!/usr/bin/env python
"""Inside the simulator: literal per-rank data movement with SimComm.

The scaling benchmarks use analytic cost formulas, but the simulator also
ships a literal communicator whose collectives really move data between
per-rank NumPy buffers.  This example runs the SpMV that LACC's 2D driver
(``lacc_2d``) runs in its hooks — the paper's §V-A pattern on a 2x2
process grid — through :func:`repro.combblas.spmv.dist_mxv`:

1. a column **gather**: one ``alltoallv`` in which every rank sends its
   piece of the input vector to the ranks of the processor column that
   multiplies against it;
2. a **local multiply** of each rank's matrix block on the paper's
   *(Select2nd, min)* semiring;
3. a row **route**: one fused ``alltoallv`` of (index, value) pairs back
   to the vector's owners, who merge-reduce what they received.

The result is checked against serial :func:`repro.graphblas.mxv`, which
is exactly how the test suite validates the distributed layer's ownership
arithmetic.

Usage:  python examples/simulated_cluster.py
"""

import numpy as np

import repro.graphblas as gb
from repro.combblas import DistMatrix
from repro.combblas.spmv import dist_mxv
from repro.graphs import generators as gen
from repro.mpisim import ProcessGrid, SimComm
from repro.obs import Tracer, activate


def main() -> None:
    n, p = 16, 4
    g = gen.erdos_renyi(n, 3.0, seed=7)
    A = g.to_matrix()
    grid = ProcessGrid(p, n)
    dm = DistMatrix(A, grid, permute=False)
    side, blk = grid.side, grid.block

    print(f"distributing a {n}-vertex graph ({A.nvals} directed edges) over "
          f"a {side}x{side} grid ({p} ranks, {blk}x{blk} blocks)\n")

    # a parent vector, block-distributed: rank r holds its local range as
    # (local offsets, values)
    f = np.random.default_rng(7).integers(0, n, n)
    x = []
    for r in range(p):
        lo, hi = grid.local_range(r)
        x.append((np.arange(hi - lo), f[lo:hi]))
        print(f"rank {r} at grid {grid.coords(r)} holds f[{lo}:{hi}] = {f[lo:hi]}")

    # y[u] = min over neighbours v of f[v]: the hooks' SpMV
    semiring = gb.semirings.SEL2ND_MIN_INT64
    tr = Tracer()
    with activate(tr):
        y = dist_mxv(dm, x, semiring, SimComm(p))

    print()
    for name, sp in zip(("gather", "route"), tr.find("alltoallv", "simcomm")):
        print(f"{name}: one alltoallv, {int(sp.counters['words'])} words "
              f"off-rank, per-rank send totals {sp.attrs['rank_send_totals']}")

    # --- verify ----------------------------------------------------------
    expected = gb.Vector.empty(n, np.int64)
    gb.mxv(expected, None, None, semiring, A, gb.Vector.dense(f))
    got = gb.Vector.sparse(
        n,
        np.concatenate([li + grid.local_range(r)[0] for r, (li, _) in enumerate(y)]),
        np.concatenate([v for _, v in y]),
    )
    assert got.isequal(expected), "distributed SpMV diverged from serial!"
    idx, vals = got.sparse_arrays()
    print("\ndistributed result matches serial mxv exactly:")
    print("  y =", dict(zip(idx.tolist(), vals.tolist())))


if __name__ == "__main__":
    main()
