"""``DistMatrix`` against the per-edge build and charge it replaced.

The permuted matrix is now built from the upper triangle of ``A`` as
undirected pairs, and ``charge_mxv`` multiplies a per-(rank, column)
count matrix by the active-column bitmap.  Both used to work per stored
edge: ``from_edges(perm[rows], perm[cols], vals)`` for the matrix and
``bincount(edge_owner[active[cols]])`` on every charge.  These tests
keep the per-edge forms as references and require equality: the same
matrix bytes, and every ``CostModel`` phase field bit-identical, on
grids of 1 to 256 ranks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.combblas import DistMatrix
from repro.graphblas import Matrix
from repro.graphs import generators as gen
from repro.mpisim import EDISON, CostModel, ProcessGrid, collectives

RANKS = (1, 4, 16, 64, 256)


def reference_matrix(A: Matrix, perm: np.ndarray) -> Matrix:
    """The per-edge relabelled build ``DistMatrix`` used before."""
    rows, cols, vals = A.extract_tuples()
    return Matrix.from_edges(A.nrows, A.ncols, perm[rows], perm[cols], vals,
                             symmetric=True)


def reference_charge(dmat: DistMatrix, cost: CostModel, active_cols, phase):
    """``charge_mxv`` as it was before the count matrix: one gather and
    one bincount over every stored edge."""
    g = dmat.grid
    side = g.side
    rows, cols, _ = dmat.A.extract_tuples()
    edge_owner = g.edge_owner(rows, cols)
    edges_per_rank = np.bincount(edge_owner, minlength=g.nprocs)
    if active_cols is None:
        flops_rank = int(edges_per_rank.max(initial=0))
        gather_words = g.block
        out_words = g.block
        dense = True
    else:
        sel = active_cols[cols]
        if not sel.any():
            return
        owners = edge_owner[sel]
        flops_rank = int(np.bincount(owners, minlength=g.nprocs).max(initial=0))
        col_blocks = g.block_col(np.flatnonzero(active_cols))
        per_col_block = np.bincount(col_blocks, minlength=side)
        gather_words = int(per_col_block.max(initial=0))
        nnz_in = int(np.count_nonzero(active_cols))
        dense = nnz_in / max(dmat.n, 1) > 0.1
        out_words = min(flops_rank, g.block)
    with cost.phase(phase):
        collectives.allgather(cost, side, gather_words / max(side, 1), phase)
        cost.charge_compute(flops_rank, phase)
        if dense:
            collectives.reduce_scatter(cost, side, out_words, phase)
        else:
            collectives.alltoallv_sparse(cost, side, out_words, phase)
            cost.charge_compute(out_words, phase)


def bitmaps(n, seed):
    rng = np.random.default_rng(seed)
    yield "none", None
    yield "empty", np.zeros(n, dtype=bool)
    yield "all", np.ones(n, dtype=bool)
    for frac in (0.02, 0.3, 0.7):
        yield f"random{frac}", rng.random(n) < frac
    one = np.zeros(n, dtype=bool)
    one[rng.integers(0, n)] = True
    yield "one", one


def graphs():
    # n not divisible by √p on every grid below 256 ranks
    yield "er", gen.erdos_renyi(1001, 6.0, seed=1)
    yield "rmat", gen.rmat(scale=10, edge_factor=6, seed=2)
    yield "star", gen.star_graph(333)
    yield "mixture", gen.component_mixture([40, 3, 1, 90, 17], avg_degree=2.0,
                                           seed=3)
    yield "edgeless", gen.erdos_renyi(50, 0.0, seed=0)


CASES = [
    (name, p, permute, dist)
    for name, _ in graphs()
    for p in RANKS
    for permute in (True, False)
    for dist in ("block", "cyclic")
]
GRAPHS = dict(graphs())


def make(name, p, permute, dist, seed=7):
    g = GRAPHS[name]
    A = g.to_matrix()
    return A, DistMatrix(A, ProcessGrid(p, g.n, distribution=dist),
                         permute=permute, seed=seed)


@pytest.mark.parametrize("name,p,permute,dist", CASES)
def test_matrix_matches_per_edge_build(name, p, permute, dist):
    A, dmat = make(name, p, permute, dist)
    want = reference_matrix(A, dmat.perm)
    for field in ("indptr", "indices", "values"):
        got, ref = getattr(dmat.A, field), getattr(want, field)
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
    assert dmat.A.is_symmetric


@pytest.mark.parametrize("name,p,permute,dist", CASES)
def test_charges_match_per_edge_formula(name, p, permute, dist):
    _, dmat = make(name, p, permute, dist)
    nodes = max(p // 4, 1)
    rows, cols, _ = dmat.A.extract_tuples()
    owner = dmat.grid.edge_owner(rows, cols)
    np.testing.assert_array_equal(
        dmat.edges_per_rank, np.bincount(owner, minlength=p))
    assert dmat.edges_per_rank.dtype == np.int64
    got, want = CostModel(EDISON, p, nodes), CostModel(EDISON, p, nodes)
    for label, active in bitmaps(dmat.n, seed=p):
        dmat.charge_mxv(got, active, label)
        reference_charge(dmat, want, active, label)
        # each bitmap twice into one phase: accumulation order matters too
        dmat.charge_mxv(got, active, "all")
        reference_charge(dmat, want, active, "all")
    assert got.phases.keys() == want.phases.keys()
    for phase, cost in want.phases.items():
        assert got.phases[phase] == cost, phase
    assert got.total_seconds == want.total_seconds


@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("permute", [True, False])
def test_per_edge_attributes(p, permute):
    _, dmat = make("er", p, permute, "block")
    rows, cols, _ = dmat.A.extract_tuples()
    np.testing.assert_array_equal(dmat.rows, rows)
    np.testing.assert_array_equal(dmat.cols, cols)
    np.testing.assert_array_equal(dmat.edge_owner,
                                  dmat.grid.edge_owner(rows, cols))


@pytest.mark.parametrize("p", RANKS)
@pytest.mark.parametrize("permute", [True, False])
def test_local_blocks_round_trip(p, permute):
    _, dmat = make("rmat", p, permute, "block")
    grid = dmat.grid
    parts = []
    for rank in range(p):
        br, bc = grid.coords(rank)
        blk = dmat.local_block(rank).to_matrix()
        r, c, _ = blk.extract_tuples()
        parts.append((r + br * grid.block, c + bc * grid.block))
    r = np.concatenate([x for x, _ in parts])
    c = np.concatenate([y for _, y in parts])
    back = Matrix.from_edges(dmat.n, dmat.n, r, c, True)
    for field in ("indptr", "indices", "values"):
        assert getattr(back, field).tobytes() == getattr(dmat.A, field).tobytes()
