"""Fuzz tests for :meth:`Matrix.from_edges` and :meth:`DCSC.from_coo`.

Randomized COO triples across dtypes, duplicate-resolution modes, empty
inputs, and int64 boundary values.  The boundary cases pin the native
CSR build path: the old SciPy-COO round trip went through float64 and
silently corrupted integers above 2^53 — these tests are the regression
lock on that fix.  The packed-key builds are checked byte for byte
against the two-key ``np.lexsort`` builds they replaced, kept here as
references.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphblas import DCSC, Matrix

DTYPES = (np.bool_, np.int32, np.int64, np.uint64, np.float32, np.float64)

shapes = st.tuples(st.integers(1, 30), st.integers(1, 30))
seeds = st.integers(min_value=0, max_value=2**31 - 1)
dtypes = st.sampled_from(DTYPES)


def _coo(rng, nrows, ncols, dtype, nnz=None, unique=False):
    if nnz is None:
        nnz = int(rng.integers(0, 3 * max(nrows, ncols)))
    r = rng.integers(0, nrows, nnz).astype(np.int64)
    c = rng.integers(0, ncols, nnz).astype(np.int64)
    if unique and nnz:
        keys = np.unique(r * ncols + c)
        r, c = keys // ncols, keys % ncols
        nnz = r.size
    if dtype is np.bool_:
        v = rng.integers(0, 2, nnz).astype(dtype)
    elif np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        v = rng.integers(max(info.min, -10**6), min(info.max, 10**6), nnz).astype(dtype)
    else:
        v = rng.standard_normal(nnz).astype(dtype)
    return r, c, v


class TestFuzzRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(shapes, seeds, dtypes)
    def test_unique_triples_round_trip_exactly(self, shape, seed, dtype):
        nrows, ncols = shape
        rng = np.random.default_rng(seed)
        r, c, v = _coo(rng, nrows, ncols, dtype, unique=True)
        m = Matrix.from_edges(nrows, ncols, r, c, v)
        rr, cc, vv = m.extract_tuples()
        order = np.lexsort((c, r))
        np.testing.assert_array_equal(rr, r[order])
        np.testing.assert_array_equal(cc, c[order])
        np.testing.assert_array_equal(vv, v[order])
        assert vv.dtype == np.dtype(dtype)

    @settings(max_examples=40, deadline=None)
    @given(shapes, seeds, dtypes)
    def test_matches_scipy_reference(self, shape, seed, dtype):
        """For dtypes scipy handles exactly, the CSR structure matches a
        scipy-built reference."""
        import scipy.sparse as sp

        nrows, ncols = shape
        rng = np.random.default_rng(seed)
        r, c, v = _coo(rng, nrows, ncols, dtype, unique=True)
        m = Matrix.from_edges(nrows, ncols, r, c, v)
        ref = sp.coo_matrix(
            (v.astype(np.float64), (r, c)), shape=(nrows, ncols)
        ).tocsr()
        got = m.to_scipy()
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)


class TestEmptyAndDegenerate:
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
    def test_zero_edges(self, dtype):
        m = Matrix.from_edges(5, 7, [], [], np.empty(0, dtype=dtype))
        assert m.nvals == 0
        assert m.shape == (5, 7)
        r, c, v = m.extract_tuples()
        assert r.size == c.size == v.size == 0

    def test_scalar_value_broadcast(self):
        m = Matrix.from_edges(3, 3, [0, 1], [1, 2], True)
        _, _, v = m.extract_tuples()
        assert v.dtype == np.bool_
        assert v.all()

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            Matrix.from_edges(3, 3, [0, 3], [0, 0])
        with pytest.raises(IndexError):
            Matrix.from_edges(3, 3, [0, -1], [0, 0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Matrix.from_edges(3, 3, [0, 1], [0])
        with pytest.raises(ValueError):
            Matrix.from_edges(3, 3, [0, 1], [0, 1], values=np.ones(3))


class TestInt64Boundary:
    """Regression lock: wide integers survive the build bit-exactly."""

    BIG = np.array(
        [2**53 + 1, 2**62 - 1, -(2**53) - 1, np.iinfo(np.int64).max], dtype=np.int64
    )

    def test_values_above_2_53_survive(self):
        n = self.BIG.size
        m = Matrix.from_edges(n, n, np.arange(n), np.arange(n), self.BIG)
        _, _, v = m.extract_tuples()
        np.testing.assert_array_equal(v, self.BIG)
        assert v.dtype == np.int64

    def test_uint64_top_bit_survives(self):
        big = np.array([2**63 + 7, np.iinfo(np.uint64).max], dtype=np.uint64)
        m = Matrix.from_edges(2, 2, [0, 1], [1, 0], big)
        _, _, v = m.extract_tuples()
        np.testing.assert_array_equal(v, big)
        assert v.dtype == np.uint64

    def test_dedup_min_on_wide_ints(self):
        a, b = 2**53 + 2, 2**53 + 1  # adjacent; float64 can't tell them apart
        m = Matrix.from_edges(
            2, 2, [0, 0], [1, 1], np.array([a, b], dtype=np.int64), dedup="min"
        )
        _, _, v = m.extract_tuples()
        assert v[0] == b


class TestDedupModes:
    @settings(max_examples=40, deadline=None)
    @given(seeds, st.sampled_from(["last", "min", "plus"]))
    def test_dedup_semantics(self, seed, mode):
        """Each mode reduces duplicate (row, col) groups exactly as
        specified, dtype preserved."""
        rng = np.random.default_rng(seed)
        nnz = int(rng.integers(1, 40))
        r = rng.integers(0, 4, nnz).astype(np.int64)
        c = rng.integers(0, 4, nnz).astype(np.int64)
        v = rng.integers(-100, 100, nnz).astype(np.int32)
        m = Matrix.from_edges(4, 4, r, c, v, dedup=mode)
        _, _, got = m.extract_tuples()
        assert got.dtype == np.int32
        # reference reduction, per (row, col) key in lexicographic order
        ref = {}
        for rk, ck, vk in zip(r.tolist(), c.tolist(), v.tolist()):
            key = (rk, ck)
            if key not in ref:
                ref[key] = vk
            elif mode == "last":
                ref[key] = vk
            elif mode == "min":
                ref[key] = min(ref[key], vk)
            else:
                ref[key] = np.int32(ref[key] + np.int32(vk))  # wraps like the kernel
        want = np.array([ref[k] for k in sorted(ref)], dtype=np.int32)
        np.testing.assert_array_equal(got, want)

    def test_dedup_plus_keeps_narrow_dtype(self):
        """`plus` must not widen int32 to the platform accumulator."""
        v = np.array([2_000_000_000, 2_000_000_000], dtype=np.int32)  # wraps
        m = Matrix.from_edges(1, 1, [0, 0], [0, 0], v, dedup="plus")
        _, _, got = m.extract_tuples()
        assert got.dtype == np.int32
        assert got[0] == np.int32(np.int64(4_000_000_000) & 0xFFFFFFFF)

    def test_unsupported_dtype_rejected(self):
        """The GraphBLAS type registry is closed: int8 is refused loudly
        instead of being coerced."""
        with pytest.raises(TypeError, match="unsupported"):
            Matrix.from_edges(2, 2, [0, 1], [1, 0], np.array([1, 2], dtype=np.int8))

    def test_dedup_error_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            Matrix.from_edges(2, 2, [0, 0], [1, 1], [1, 2], dedup="error")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="dedup"):
            Matrix.from_edges(2, 2, [0, 0], [1, 1], [1, 2], dedup="what")


# ----------------------------------------------------------------------
# packed-key builds vs the lexsort references
# ----------------------------------------------------------------------

def _lexsort_csr(nrows, rows, cols, values, dedup):
    """The two-key ``np.lexsort`` CSR build ``from_edges`` used before the
    packed key; returns ``(indptr, indices, values)``."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if np.isscalar(values) or (isinstance(values, np.ndarray) and values.ndim == 0):
        vals = np.full(rows.shape, values)
    else:
        vals = np.asarray(values)
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], vals[order]
    key_change = np.r_[True, (r[1:] != r[:-1]) | (c[1:] != c[:-1])]
    if not key_change.all():
        starts = np.flatnonzero(key_change)
        if dedup == "min":
            v = np.minimum.reduceat(v, starts)
        elif dedup == "plus":
            v = np.add.reduceat(v, starts, dtype=v.dtype)
        else:
            v = v[np.r_[starts[1:], v.size] - 1]
        r, c = r[key_change], c[key_change]
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(r, minlength=nrows), out=indptr[1:])
    return indptr, c, v


def _lexsort_dcsc(rows, cols, values):
    """The ``np.lexsort`` + ``np.unique(return_counts=True)`` DCSC build;
    returns ``(jc, cp, ir, num)``."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values)
    order = np.lexsort((rows, cols))
    rows, cols, values = rows[order], cols[order], values[order]
    jc, counts = np.unique(cols, return_counts=True)
    cp = np.zeros(jc.size + 1, dtype=np.int64)
    np.cumsum(counts, out=cp[1:])
    return jc, cp, rows, values


def _assert_same_bytes(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def _special_values(rng, v):
    """Sprinkle -0.0 / +0.0 / NaN into float values (or wide ints into
    integer ones) so the byte comparison sees the awkward cases."""
    if v.size == 0:
        return v
    v = v.copy()
    hit = rng.integers(0, v.size, max(1, v.size // 3))
    if v.dtype.kind == "f":
        v[hit] = rng.choice(np.array([-0.0, 0.0, np.nan], dtype=v.dtype), hit.size)
    elif v.dtype == np.int64:
        v[hit] = rng.choice(np.array([2**62 + 1, 2**53 + 1, -(2**63)], dtype=np.int64),
                            hit.size)
    elif v.dtype == np.uint64:
        v[hit] = np.uint64(2**63 + 5)
    return v


SCALARS = (True, 7, -0.0, float("nan"), np.int64(2**62 + 3), np.array(2.5))


class TestPackedBuildMatchesLexsort:
    @settings(max_examples=80, deadline=None)
    @given(shapes, seeds, dtypes, st.sampled_from(["last", "min", "plus"]))
    def test_array_values(self, shape, seed, dtype, mode):
        nrows, ncols = shape
        rng = np.random.default_rng(seed)
        r, c, v = _coo(rng, nrows, ncols, dtype)
        v = _special_values(rng, v)
        m = Matrix.from_edges(nrows, ncols, r, c, v, dedup=mode)
        _assert_same_bytes(
            (m.indptr, m.indices, m.values), _lexsort_csr(nrows, r, c, v, mode)
        )

    @settings(max_examples=60, deadline=None)
    @given(shapes, seeds, st.sampled_from(SCALARS),
           st.sampled_from(["last", "min", "plus"]))
    def test_scalar_values(self, shape, seed, value, mode):
        nrows, ncols = shape
        rng = np.random.default_rng(seed)
        r, c, _ = _coo(rng, nrows, ncols, np.int64)
        m = Matrix.from_edges(nrows, ncols, r, c, value, dedup=mode)
        _assert_same_bytes(
            (m.indptr, m.indices, m.values), _lexsort_csr(nrows, r, c, value, mode)
        )

    @settings(max_examples=40, deadline=None)
    @given(shapes, seeds, st.booleans())
    def test_dedup_error_raises_exactly_on_duplicates(self, shape, seed, scalar):
        nrows, ncols = shape
        rng = np.random.default_rng(seed)
        r, c, v = _coo(rng, nrows, ncols, np.float64)
        values = 1.5 if scalar else v
        want = _lexsort_csr(nrows, r, c, values, "last")
        if want[1].size < r.size:
            with pytest.raises(ValueError, match="duplicate"):
                Matrix.from_edges(nrows, ncols, r, c, values, dedup="error")
        else:
            m = Matrix.from_edges(nrows, ncols, r, c, values, dedup="error")
            _assert_same_bytes((m.indptr, m.indices, m.values), want)

    @pytest.mark.parametrize("ncols", [2**40, 2**61], ids=["packed", "fallback"])
    def test_wide_column_ids(self, monkeypatch, ncols):
        """Column ids far beyond 2^32 keep the packed key exact; once
        nrows·ncols reaches 2^62 the build falls back to lexsort."""
        calls = []
        real_lexsort = np.lexsort

        def spy(keys):
            calls.append(len(keys))
            return real_lexsort(keys)

        rng = np.random.default_rng(5)
        nrows = 3
        r = rng.integers(0, nrows, 50).astype(np.int64)
        c = rng.choice(np.array([0, 1, 2**33, ncols - 2, ncols - 1]), 50)
        v = rng.integers(-9, 9, 50).astype(np.int64)
        want = _lexsort_csr(nrows, r, c, v, "plus")
        monkeypatch.setattr(np, "lexsort", spy)
        m = Matrix.from_edges(nrows, ncols, r, c, v, dedup="plus")
        _assert_same_bytes((m.indptr, m.indices, m.values), want)
        assert bool(calls) == (nrows * ncols >= 2**62)

    def test_adjacency_matches_lexsort_reference(self):
        rng = np.random.default_rng(11)
        n = 200
        u = rng.integers(0, n, 1500).astype(np.int64)
        v = rng.integers(0, n, 1500).astype(np.int64)
        keep = u != v
        uu = np.r_[u[keep], v[keep]]
        vv = np.r_[v[keep], u[keep]]
        A = Matrix.adjacency(n, u, v)
        _assert_same_bytes(
            (A.indptr, A.indices, A.values), _lexsort_csr(n, uu, vv, True, "last")
        )


class TestDCSCMatchesLexsort:
    @settings(max_examples=60, deadline=None)
    @given(shapes, seeds, dtypes)
    def test_from_coo(self, shape, seed, dtype):
        nrows, ncols = shape
        rng = np.random.default_rng(seed)
        r, c, v = _coo(rng, nrows, ncols, dtype, unique=True)
        d = DCSC.from_coo(nrows, ncols, r, c, v)
        _assert_same_bytes((d.jc, d.cp, d.ir, d.num), _lexsort_dcsc(r, c, v))

    def test_fallback_for_huge_dimensions(self):
        big = 2**40  # nrows·ncols = 2^80: lexsort fallback
        r = np.array([big - 1, 0, 5, 5], dtype=np.int64)
        c = np.array([3, big - 1, 3, 0], dtype=np.int64)
        v = np.array([1.0, -0.0, np.nan, 2.0])
        d = DCSC.from_coo(big, big, r, c, v)
        _assert_same_bytes((d.jc, d.cp, d.ir, d.num), _lexsort_dcsc(r, c, v))

    def test_empty(self):
        d = DCSC.from_coo(4, 4, [], [], np.empty(0))
        want = _lexsort_dcsc([], [], np.empty(0))
        _assert_same_bytes((d.jc, d.cp, d.ir, d.num), want)
