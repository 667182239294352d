"""Memory high-water mark of the adjacency build and the CombBLAS relabel.

``Matrix._undirected`` writes both triangles of the symmetric CSR into one
int64 buffer of *2m* packed keys, in chunks, and shrinks it in place to
the stored entries, so the heap peak of ``Matrix.adjacency`` is the
matrix it returns, or that buffer when duplicates make it larger.
``combblas.distmatrix._relabelled`` frees its row ids and mask before the
second gather and hands the renamed pairs to the same build, so it peaks
at about twice its result.  The bounds below are ``tracemalloc`` peaks
over the returned matrix's bytes: 1.6× for the build and 2.2× for the
relabel and for an edge list that repeats every edge.  The build they
replaced peaked at 2.41–2.43×, 4.22–4.26× and 2.91× there.

``tracemalloc`` sees NumPy's array data but not the working buffer of its
stable sort, so the one timsort merge buffer (half the stored entries'
keys) is outside these figures; ``docs/PERFORMANCE.md`` ("One buffer per
build") gives the resident-set peaks as well.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.combblas.distmatrix import _relabelled
from repro.graphblas import Matrix
from repro.graphs import generators as gen

BUILD_BOUND = 1.6
RELABEL_BOUND = 2.2

GRAPHS = {
    "rmat16": lambda: gen.rmat(scale=16, edge_factor=16, seed=1),
    "erdos_renyi": lambda: gen.erdos_renyi(200000, 10, seed=1),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


def matrix_bytes(A: Matrix) -> int:
    return A.indptr.nbytes + A.indices.nbytes + A.values.nbytes


def traced(fn):
    """``fn()`` and the heap peak of the allocations made during it."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_peaks_at_its_output(graph):
    u, v = graph.u.copy(), graph.v.copy()
    A, peak = traced(lambda: Matrix.adjacency(graph.n, graph.u, graph.v))
    assert peak <= BUILD_BOUND * matrix_bytes(A), peak / matrix_bytes(A)
    # the endpoint arrays are only read
    assert graph.u.tobytes() == u.tobytes() and graph.v.tobytes() == v.tobytes()


def test_relabel_peaks_at_twice_its_output(graph):
    A = graph.to_matrix()
    perm = np.random.default_rng(0).permutation(graph.n)
    B, peak = traced(lambda: _relabelled(A, perm))
    assert peak <= RELABEL_BOUND * matrix_bytes(B), peak / matrix_bytes(B)
    assert B.nvals == A.nvals


def test_both_directions_leave_no_double_buffer():
    # every edge listed twice: the 2m-key buffer is twice the stored
    # entries (2.91x the matrix in the build it replaced), and it must
    # shrink rather than stay the base of a half-size view
    g = GRAPHS["rmat16"]()
    u, v = np.r_[g.u, g.v], np.r_[g.v, g.u]
    A, peak = traced(lambda: Matrix.adjacency(g.n, u, v))
    assert peak <= RELABEL_BOUND * matrix_bytes(A), peak / matrix_bytes(A)
    base = A.indices.base
    assert base is None or base.nbytes <= A.indices.nbytes
