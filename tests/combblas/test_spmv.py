"""Tests for the literal 2D-distributed SpMV/SpMSpV (§V-A execution)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphblas as gb
from repro.combblas import DistMatrix
from repro.combblas import spmv
from repro.graphblas import Vector
from repro.graphblas import semirings as sr
from repro.graphs import generators as gen
from repro.mpisim import ProcessGrid, SimComm
from repro.obs import Tracer, activate


def dist(g, p, permute=False, seed=0):
    return DistMatrix(g.to_matrix(), ProcessGrid(p, g.n), permute=permute, seed=seed)


def dist_mxv(dm, x, semiring, comm=None):
    """:func:`spmv.dist_mxv` on the vector *x*, split into the grid's
    blocks; the per-rank output blocks are joined back into a vector."""
    grid = dm.grid
    idx, vals = x.sparse_arrays()
    blocks = []
    for r in range(grid.nprocs):
        lo, hi = grid.local_range(r)
        sel = (idx >= lo) & (idx < hi)
        blocks.append((idx[sel] - lo, vals[sel]))
    out = spmv.dist_mxv(dm, blocks, semiring, comm or SimComm(grid.nprocs))
    assert len(out) == grid.nprocs
    return Vector.sparse(
        grid.n,
        np.concatenate([li + grid.local_range(r)[0] for r, (li, _) in enumerate(out)]),
        np.concatenate([v for _, v in out]),
    )


def serial(A, x, semiring):
    out = Vector.empty(A.nrows, x.dtype)
    gb.mxv(out, None, None, semiring, A, x)
    return out


class TestAgainstSerial:
    @pytest.mark.parametrize("p", [1, 4, 9, 16])
    def test_dense_input(self, p):
        g = gen.erdos_renyi(80, 4.0, seed=1)
        dm = dist(g, p)
        x = Vector.iota(g.n)
        y = dist_mxv(dm, x, sr.SEL2ND_MIN_INT64)
        assert y.isequal(serial(g.to_matrix(), x, sr.SEL2ND_MIN_INT64))

    @pytest.mark.parametrize("p", [4, 9])
    def test_sparse_input(self, p):
        g = gen.erdos_renyi(100, 3.0, seed=2)
        dm = dist(g, p)
        x = Vector.sparse(g.n, [5, 50, 95], [1, 2, 3])
        y = dist_mxv(dm, x, sr.SEL2ND_MIN_INT64)
        assert y.isequal(serial(g.to_matrix(), x, sr.SEL2ND_MIN_INT64))

    def test_empty_input(self):
        g = gen.erdos_renyi(40, 2.0, seed=3)
        dm = dist(g, 4)
        y = dist_mxv(dm, Vector.empty(g.n), sr.SEL2ND_MIN_INT64)
        assert y.nvals == 0

    def test_empty_matrix(self):
        g = gen.EdgeList(20, [], [])
        dm = dist(g, 4)
        y = dist_mxv(dm, Vector.iota(20), sr.SEL2ND_MIN_INT64)
        assert y.nvals == 0

    def test_ragged_sizes(self):
        """n not divisible by the grid side nor by p."""
        g = gen.erdos_renyi(37, 3.0, seed=4)
        dm = dist(g, 4)
        x = Vector.iota(37)
        y = dist_mxv(dm, x, sr.SEL2ND_MIN_INT64)
        assert y.isequal(serial(g.to_matrix(), x, sr.SEL2ND_MIN_INT64))

    def test_size_mismatch(self):
        g = gen.path_graph(10)
        dm = dist(g, 4)
        empty = np.empty(0, np.int64)
        with pytest.raises(ValueError):
            spmv.dist_mxv(dm, [(empty, empty)] * 3, sr.SEL2ND_MIN_INT64, SimComm(4))

    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_two_alltoallvs_on_the_callers_comm(self, p):
        """The column gather and the row routing are one alltoallv each on
        the given communicator, and nothing else communicates."""
        g = gen.erdos_renyi(60, 3.0, seed=8)
        tr = Tracer()
        with activate(tr):
            dist_mxv(dist(g, p), Vector.iota(g.n), sr.SEL2ND_MIN_INT64)
        spans = tr.find(cat="simcomm")
        assert [sp.name for sp in spans] == ["alltoallv", "alltoallv"]
        assert {sp.attrs["ranks"] for sp in spans} == {p}

    def test_other_semirings(self):
        g = gen.erdos_renyi(50, 3.0, seed=5)
        dm = dist(g, 4)
        x = Vector.iota(g.n)
        for semiring in (sr.SEL2ND_MAX_INT64, sr.PLUS_PAIR_INT64):
            y = dist_mxv(dm, x, semiring)
            assert y.isequal(serial(g.to_matrix(), x, semiring)), semiring.name

    def test_permuted_matrix(self):
        """With permutation, the product equals the serial product on the
        permuted matrix."""
        g = gen.erdos_renyi(60, 3.0, seed=6)
        dm = dist(g, 9, permute=True, seed=7)
        x = Vector.iota(g.n)
        y = dist_mxv(dm, x, sr.SEL2ND_MIN_INT64)
        assert y.isequal(serial(dm.A, x, sr.SEL2ND_MIN_INT64))

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from([1, 4, 9]),
    )
    def test_fuzz(self, seed, p):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50))
        m = int(rng.integers(0, 120))
        g = gen.EdgeList(n, rng.integers(0, n, m), rng.integers(0, n, m))
        k = int(rng.integers(0, n + 1))
        x = Vector.sparse(
            n, rng.choice(n, k, replace=False), rng.integers(0, 99, k)
        )
        dm = dist(g, p)
        y = dist_mxv(dm, x, sr.SEL2ND_MIN_INT64)
        assert y.isequal(serial(g.to_matrix(), x, sr.SEL2ND_MIN_INT64))


class TestHookingIdiom:
    def test_cond_hook_proposals_via_dist_mxv(self):
        """The distributed product reproduces LACC's hooking proposals:
        fn[i] = min parent among neighbours."""
        g = gen.path_graph(12)
        dm = dist(g, 4)
        f = Vector.iota(12)
        fn = dist_mxv(dm, f, sr.SEL2ND_MIN_INT64)
        expected = serial(g.to_matrix(), f, sr.SEL2ND_MIN_INT64)
        assert fn.isequal(expected)
        assert fn.get(5) == 4  # min(f[4], f[6]) = 4
