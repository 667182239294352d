"""``Matrix.adjacency`` against the build it replaced.

The adjacency matrix is now built from packed ``(min, max)`` keys in
one buffer, filled and deduplicated in chunks of ``_BUILD_CHUNK`` edges:
one sort of the *m* undirected pairs plus one of their mirrors, merged
into CSR order.  It used to symmetrize the edge list and hand all *2m*
directed edges to ``from_edges``.  Both builds are kept here verbatim as
references, and the new one must match them byte for byte: ``indptr``,
``indices``, ``values`` and their dtypes, plus the symmetry flag and the
errors raised on bad input.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphblas import Matrix
from repro.graphblas.matrix import _BUILD_CHUNK
from repro.graphblas.sorting import pack_pairs, run_starts
from repro.graphs import generators as gen


def _reference_from_edges(nrows, ncols, rows, cols, values=True, dedup="last",
                          symmetric=None):
    """``Matrix.from_edges`` as it was before the pair build, verbatim."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise ValueError("rows/cols shape mismatch")
    if rows.size and (
        rows.min() < 0 or rows.max() >= nrows or cols.min() < 0 or cols.max() >= ncols
    ):
        raise IndexError("edge endpoint out of range")
    scalar = np.isscalar(values) or (
        isinstance(values, np.ndarray) and values.ndim == 0
    )
    if scalar:
        vals = np.full(rows.shape, values)
    else:
        vals = np.asarray(values)
        if vals.shape != rows.shape:
            raise ValueError("values shape mismatch")
    if rows.size == 0:
        return Matrix(
            nrows,
            ncols,
            np.zeros(nrows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.asarray(vals).dtype),
            symmetric=symmetric,
        )
    key = pack_pairs(rows, cols, nrows, ncols)
    if key is None:
        order = np.lexsort((cols, rows))
        r, c, v = rows[order], cols[order], vals[order]
        key_change = np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])]
    else:
        if scalar:
            key.sort()
            v = vals
        else:
            order = np.argsort(key, kind="stable")
            key, v = key[order], vals[order]
        key_change = run_starts(key)
    if not key_change.all():
        if dedup == "error":
            raise ValueError("duplicate edges in build")
        starts = np.flatnonzero(key_change)
        if dedup == "min":
            v = np.minimum.reduceat(v, starts)
        elif dedup == "plus":
            v = np.add.reduceat(v, starts, dtype=v.dtype)
        elif dedup == "last":
            v = v[np.r_[starts[1:], v.size] - 1]
        else:
            raise ValueError(f"unknown dedup mode {dedup!r}")
        if key is None:
            r, c = r[key_change], c[key_change]
        else:
            key = key[key_change]
    if key is not None:
        r, c = np.divmod(key, ncols)
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(r, minlength=nrows), out=indptr[1:])
    return Matrix(nrows, ncols, indptr, c, np.ascontiguousarray(v),
                  symmetric=symmetric)


def _reference_adjacency(n, u, v, symmetrize=True):
    """``Matrix.adjacency`` as it was before the pair build, verbatim."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.shape != v.shape:
        raise ValueError(
            f"endpoint arrays must have equal length, got {u.shape} vs {v.shape}"
        )
    keep = u != v
    u, v = u[keep], v[keep]
    if symmetrize:
        u, v = np.r_[u, v], np.r_[v, u]
    return _reference_from_edges(n, n, u, v, values=True, symmetric=True)


def assert_same_matrix(got: Matrix, want: Matrix) -> None:
    assert got.shape == want.shape
    for name in ("indptr", "indices", "values"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name
    assert got.is_symmetric == want.is_symmetric


def check(n, u, v):
    got = Matrix.adjacency(n, u, v)
    assert_same_matrix(got, _reference_adjacency(n, u, v))
    return got


def check_error(n, u, v):
    """Both builds raise the same exception type."""
    with pytest.raises((IndexError, ValueError)) as want:
        _reference_adjacency(n, u, v)
    with pytest.raises(want.type):
        Matrix.adjacency(n, u, v)


class TestEdgeCases:
    def test_self_loops_dropped(self):
        m = check(4, [0, 1, 1, 3, 2], [0, 2, 1, 3, 3])
        assert m.nvals == 4  # {1,2} and {2,3}, both directions

    def test_only_self_loops(self):
        m = check(3, [0, 1, 2], [0, 1, 2])
        assert m.nvals == 0

    def test_duplicates_in_both_orientations(self):
        m = check(5, [0, 1, 0, 3, 4, 3, 1], [1, 0, 1, 4, 3, 4, 0])
        assert m.nvals == 4

    def test_reversed_edges(self):
        check(6, [5, 4, 3, 2, 1], [0, 1, 2, 3, 4])

    def test_isolated_vertices(self):
        m = check(10, [2, 7], [7, 2])
        assert m.row_degrees().tolist() == [0, 0, 1, 0, 0, 0, 0, 1, 0, 0]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_and_empty(self, n):
        check(n, [], [])
        check(n, np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32))

    def test_two_vertices(self):
        check(2, [0, 1, 1], [1, 0, 1])

    def test_one_vertex_self_loop(self):
        check(1, [0, 0], [0, 0])

    def test_int32_inputs(self):
        rng = np.random.default_rng(3)
        u = rng.integers(0, 50, 200).astype(np.int32)
        v = rng.integers(0, 50, 200).astype(np.int32)
        check(50, u, v)

    def test_numpy_integer_vertex_count(self):
        check(np.int64(5), [0, 1, 4], [1, 4, 4])

    def test_list_and_two_dim_inputs(self):
        check(4, [[0, 1], [2, 3]], [[1, 2], [3, 3]])

    def test_one_direction_is_symmetrized(self):
        # a `symmetrize=False` build once flagged a one-directional list
        # symmetric, so lacc() skipped its check and split {0, 1}
        from repro.core.lacc import lacc

        assert lacc(check(3, [0], [1])).n_components == 2
        with pytest.raises(TypeError):
            Matrix.adjacency(3, [0], [1], symmetrize=False)


class TestErrors:
    def test_out_of_range(self):
        check_error(3, [0, 3], [1, 0])
        check_error(3, [0, 1], [1, 7])

    def test_negative(self):
        check_error(3, [0, -1], [1, 0])

    def test_out_of_range_self_loop_dropped_first(self):
        # a loop at an out-of-range vertex is dropped before the range check
        check(3, [0, 5, -2], [1, 5, -2])

    def test_shape_mismatch(self):
        check_error(3, [0, 1], [1])

    def test_negative_vertex_count(self):
        check_error(-1, [], [])
        check_error(-1, [0], [1])


class TestFuzz:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 120), st.integers(0, 2**31 - 1),
           st.booleans())
    def test_random_multigraphs(self, n, m, seed, narrow):
        rng = np.random.default_rng(seed)
        dtype = np.int32 if narrow else np.int64
        u = rng.integers(0, n, m).astype(dtype)
        v = rng.integers(0, n, m).astype(dtype)
        check(n, u, v)

    @pytest.mark.parametrize("seed", range(3))
    def test_rmat(self, seed):
        g = gen.rmat(scale=9, edge_factor=8, seed=seed)
        check(g.n, g.u, g.v)

    @pytest.mark.parametrize("seed", range(3))
    def test_erdos_renyi(self, seed):
        g = gen.erdos_renyi(700, 6.0, seed=seed)
        check(g.n, g.u, g.v)
        check(g.n, g.v, g.u)

    def test_path(self):
        g = gen.path_graph(1000)
        check(g.n, g.u, g.v)
        check(g.n, g.u[::-1], g.v[::-1])

    def test_largest_ids_fill_the_packed_key(self):
        # vertex n - 1 sets every bit of the packed key's column field
        n = 2 ** 17
        rng = np.random.default_rng(5)
        u = rng.integers(0, n, 3000)
        v = rng.integers(0, n, 3000)
        check(n, np.r_[u, n - 1, 0, n - 1], np.r_[v, 0, n - 1, n - 2])


class TestChunkBoundaries:
    """Edge lists longer than one chunk, with the cases that cross a chunk
    edge: the fill loop's chunks run over the input, the compaction's over
    the sorted keys."""

    M = 3 * _BUILD_CHUNK + 17

    def edges(self, n, seed=6):
        rng = np.random.default_rng(seed)
        u, v = rng.integers(0, n, self.M), rng.integers(0, n, self.M)
        for edge in range(_BUILD_CHUNK, self.M, _BUILD_CHUNK):
            u[edge - 2:edge + 2] = v[edge - 2:edge + 2]  # loops across the edge
            u[edge + 2], v[edge + 2] = v[edge - 3], u[edge - 3]  # a reversed repeat
        return u, v

    @pytest.mark.parametrize("n", [3, 40, 600, 2 ** 18])
    def test_loops_and_duplicates_straddle_chunks(self, n):
        u, v = self.edges(n)
        check(n, u, v)

    def test_a_whole_chunk_of_loops(self):
        u, v = self.edges(500)
        v[_BUILD_CHUNK:2 * _BUILD_CHUNK] = u[_BUILD_CHUNK:2 * _BUILD_CHUNK]
        check(500, u, v)

    def test_out_of_range_only_in_last_chunk(self):
        u, v = self.edges(500)
        v[-1] = 500
        check_error(500, u, v)
        with pytest.raises(IndexError):
            Matrix.adjacency(500, u, v)

    def test_out_of_range_loop_in_later_chunk_dropped(self):
        u, v = self.edges(500)
        u[2 * _BUILD_CHUNK + 5] = v[2 * _BUILD_CHUNK + 5] = 900
        u[-1] = v[-1] = -4
        check(500, u, v)

    def test_both_directions(self):
        u, v = self.edges(5000)
        check(5000, np.r_[u, v], np.r_[v, u])
