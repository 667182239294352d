"""Equivalence and registry suite for the GraphBLAS kernel tiers.

Three layers of checking, mirroring the PR-2 write-path matrix:

* **Direct kernel equivalence** — every public kernel in
  :mod:`repro.graphblas.kernels._compiled` is run side by side with its
  :mod:`._numpy` counterpart on identical inputs and must match the
  reference *exactly*: values, indices, dtypes, flops and path strings.
  These tests always run: without numba the ``@njit`` decorator degrades
  to the identity, so the compiled module's dispatch logic executes as
  pure Python (the official compiled tier itself is a separate,
  numba-gated leg below).
* **End-to-end tier equivalence** — the full masked-write semantics
  matrix (output representation × mask kind × accumulator × replace) is
  run through ``gb.mxv`` once per tier and the results must be
  identical.  Parametrised over a pure-Python registration of the
  compiled module (always runs) and the real ``compiled`` tier (skipped
  with an explicit reason when numba is absent).
* **Registry / selection behaviour** — ``set_tier``/``use``/
  ``register_tier`` invariants, plus subprocess tests of the
  ``REPRO_KERNELS`` import-time selection and its warning/error paths.
"""

import os
import subprocess
import sys
import types

import numpy as np
import pytest

import repro
import repro.graphblas as gb
from repro.graphblas import Matrix, Vector
from repro.graphblas import binaryops as bop
from repro.graphblas import kernels
from repro.graphblas import monoids as mon
from repro.graphblas import semirings as sr
from repro.graphblas.descriptor import Descriptor, Mask
from repro.graphblas.kernels import _compiled, _numpy
from repro.obs import Tracer, activate

NUMBA_MISSING_REASON = (
    "numba is not installed — the 'compiled' kernel tier is unregistered "
    "(install it with 'pip install -e .[perf]')"
)

N = 40


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def assert_kernel_equal(ref, got):
    """Exact equality for ``(idx, vals, flops, path)`` kernel returns."""
    r_idx, r_vals, r_flops, r_path = ref
    g_idx, g_vals, g_flops, g_path = got
    assert g_path == r_path
    assert g_flops == r_flops
    np.testing.assert_array_equal(g_idx, r_idx)
    np.testing.assert_array_equal(g_vals, r_vals)
    assert g_idx.dtype == r_idx.dtype
    assert g_vals.dtype == r_vals.dtype


def assert_pair_equal(ref, got):
    """Exact equality for ``(idx, vals)`` merge/reduce returns."""
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1], ref[1])
    assert got[0].dtype == ref[0].dtype
    assert got[1].dtype == ref[1].dtype


def random_adjacency(n, m, seed):
    rng = np.random.default_rng(seed)
    return Matrix.adjacency(n, rng.integers(0, n, m), rng.integers(0, n, m))


def sparse_frontier(n, density, seed, dtype=np.int64):
    rng = np.random.default_rng(seed)
    k = max(1, int(round(n * density)))
    idx = np.sort(rng.choice(n, size=k, replace=False))
    return Vector.sparse(n, idx, rng.integers(0, n, k).astype(dtype))


MXV_SEMIRINGS = [
    pytest.param(sr.SEL2ND_MIN_INT64, id="sel2nd_min"),
    pytest.param(sr.SEL2ND_MAX_INT64, id="sel2nd_max"),
    pytest.param(sr.ANY_SECOND_INT64, id="any_second"),
    pytest.param(sr.MIN_FIRST_INT64, id="min_first"),
    pytest.param(sr.semiring("plus", "times", np.int64), id="plus_times_i64"),
]


# ----------------------------------------------------------------------
# direct kernel equivalence: _compiled vs _numpy, function by function
# ----------------------------------------------------------------------

class TestSortedPrimitiveEquivalence:
    def test_lookup_sorted(self):
        rng = np.random.default_rng(0)
        sorted_idx = np.unique(rng.integers(0, 200, 60))
        idx = rng.integers(0, 220, 80)
        ref = _numpy.lookup_sorted(sorted_idx, idx)
        got = _compiled.lookup_sorted(sorted_idx, idx)
        assert_pair_equal((ref[1], ref[0].astype(np.int64)),
                          (got[1], got[0].astype(np.int64)))
        assert got[0].dtype == ref[0].dtype == np.dtype(bool)

    def test_lookup_sorted_empty_table(self):
        idx = np.array([3, 1], dtype=np.int64)
        ref = _numpy.lookup_sorted(np.empty(0, np.int64), idx)
        got = _compiled.lookup_sorted(np.empty(0, np.int64), idx)
        assert not got[0].any()
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    def test_lookup_sorted_2d_idx_falls_back(self):
        # non-1-D probes take the NumPy path; shapes must be preserved
        rng = np.random.default_rng(1)
        sorted_idx = np.unique(rng.integers(0, 50, 20))
        idx = rng.integers(0, 50, (4, 5))
        ref = _numpy.lookup_sorted(sorted_idx, idx)
        got = _compiled.lookup_sorted(sorted_idx, idx)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])
        assert got[0].shape == (4, 5)

    def test_in_sorted(self):
        rng = np.random.default_rng(2)
        sorted_idx = np.unique(rng.integers(0, 100, 40))
        idx = rng.integers(0, 100, 70)
        np.testing.assert_array_equal(
            _compiled.in_sorted(sorted_idx, idx), _numpy.in_sorted(sorted_idx, idx)
        )

    @pytest.mark.parametrize("sizes", [(30, 50), (50, 30), (0, 10), (10, 0)])
    def test_intersect_sorted(self, sizes):
        rng = np.random.default_rng(3)
        ai = np.unique(rng.integers(0, 80, sizes[0])) if sizes[0] else np.empty(0, np.int64)
        bi = np.unique(rng.integers(0, 80, sizes[1])) if sizes[1] else np.empty(0, np.int64)
        ref = _numpy.intersect_sorted(ai, bi)
        got = _compiled.intersect_sorted(ai, bi)
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(g, r)


class TestMergeEquivalence:
    def _pattern(self, rng, n, k, dtype):
        idx = np.sort(rng.choice(n, size=k, replace=False)).astype(np.int64)
        if np.dtype(dtype).kind == "b":
            return idx, rng.integers(0, 2, k).astype(bool)
        return idx, rng.integers(0, 50, k).astype(dtype)

    @pytest.mark.parametrize("op", [bop.MIN, bop.MAX, bop.PLUS, bop.TIMES,
                                    bop.SECOND, bop.FIRST, bop.ANY],
                             ids=lambda o: o.name)
    @pytest.mark.parametrize("dtype", [np.int64, np.float64], ids=["i64", "f64"])
    def test_merge_union_numeric(self, op, dtype):
        rng = np.random.default_rng(4)
        ai, av = self._pattern(rng, 100, 30, dtype)
        bi, bv = self._pattern(rng, 100, 45, dtype)
        assert_pair_equal(
            _numpy.merge_union(ai, av, bi, bv, op, np.dtype(dtype)),
            _compiled.merge_union(ai, av, bi, bv, op, np.dtype(dtype)),
        )

    @pytest.mark.parametrize("op", [bop.LOR, bop.LAND, bop.LXOR],
                             ids=lambda o: o.name)
    def test_merge_union_bool(self, op):
        rng = np.random.default_rng(5)
        ai, av = self._pattern(rng, 60, 25, bool)
        bi, bv = self._pattern(rng, 60, 20, bool)
        assert_pair_equal(
            _numpy.merge_union(ai, av, bi, bv, op, np.dtype(bool)),
            _compiled.merge_union(ai, av, bi, bv, op, np.dtype(bool)),
        )

    @pytest.mark.parametrize("op", [bop.EQ, bop.MIN], ids=["eq", "min_on_bool"])
    def test_merge_union_fallback_ops(self, op):
        # no opcode (eq) / ineligible dtype (min on bool): NumPy fallback
        rng = np.random.default_rng(6)
        ai, av = self._pattern(rng, 60, 25, bool)
        bi, bv = self._pattern(rng, 60, 20, bool)
        assert_pair_equal(
            _numpy.merge_union(ai, av, bi, bv, op, np.dtype(bool)),
            _compiled.merge_union(ai, av, bi, bv, op, np.dtype(bool)),
        )

    def test_merge_union_casts_inputs_to_output_dtype(self):
        rng = np.random.default_rng(7)
        ai, av = self._pattern(rng, 50, 20, np.int32)
        bi, bv = self._pattern(rng, 50, 15, np.int32)
        assert_pair_equal(
            _numpy.merge_union(ai, av, bi, bv, bop.PLUS, np.dtype(np.int64)),
            _compiled.merge_union(ai, av, bi, bv, bop.PLUS, np.dtype(np.int64)),
        )

    @pytest.mark.parametrize("empty", ["a", "b", "both"])
    def test_merge_union_empty_sides(self, empty):
        rng = np.random.default_rng(8)
        ai, av = self._pattern(rng, 50, 0 if empty in ("a", "both") else 10, np.int64)
        bi, bv = self._pattern(rng, 50, 0 if empty in ("b", "both") else 10, np.int64)
        assert_pair_equal(
            _numpy.merge_union(ai, av, bi, bv, bop.MIN, np.dtype(np.int64)),
            _compiled.merge_union(ai, av, bi, bv, bop.MIN, np.dtype(np.int64)),
        )

    @pytest.mark.parametrize("empty", [None, "a", "b"])
    def test_merge_disjoint(self, empty):
        rng = np.random.default_rng(9)
        all_idx = rng.permutation(80)[:40]
        ai = np.sort(all_idx[:25]).astype(np.int64)
        bi = np.sort(all_idx[25:]).astype(np.int64)
        av = rng.integers(0, 50, ai.size).astype(np.int64)
        bv = rng.integers(0, 50, bi.size).astype(np.int64)
        if empty == "a":
            ai, av = ai[:0], av[:0]
        elif empty == "b":
            bi, bv = bi[:0], bv[:0]
        assert_pair_equal(
            _numpy.merge_disjoint(ai, av, bi, bv, np.dtype(np.int64)),
            _compiled.merge_disjoint(ai, av, bi, bv, np.dtype(np.int64)),
        )


class TestReduceEquivalence:
    @pytest.mark.parametrize("monoid", [mon.MIN_INT64, mon.MAX_INT64,
                                        mon.PLUS_INT64, mon.PLUS_FP64,
                                        mon.LOR_BOOL, mon.ANY_INT64],
                             ids=lambda m: f"{m.op.name}_{m.dtype.name}")
    def test_segment_reduce(self, monoid):
        rng = np.random.default_rng(10)
        seg_ids = np.sort(rng.integers(0, 12, 60)).astype(np.int64)
        if monoid is mon.LOR_BOOL:
            values = rng.integers(0, 2, 60).astype(bool)
        elif monoid is mon.PLUS_FP64:
            values = rng.random(60)
        else:
            values = rng.integers(0, 90, 60).astype(np.int64)
        assert_pair_equal(
            _numpy.segment_reduce(values, seg_ids, monoid),
            _compiled.segment_reduce(values, seg_ids, monoid),
        )

    def test_segment_reduce_empty(self):
        e = np.empty(0, np.int64)
        assert_pair_equal(
            _numpy.segment_reduce(e, e, mon.MIN_INT64),
            _compiled.segment_reduce(e, e, mon.MIN_INT64),
        )

    def _check_rbr(self, values, rows, monoid, nrows):
        ref = _numpy.reduce_by_rows(values, rows, monoid, nrows)
        got = _compiled.reduce_by_rows(values, rows, monoid, nrows)
        assert got[2] == ref[2]  # packed/sorted path choice must agree
        assert_pair_equal(ref[:2], got[:2])

    @pytest.mark.parametrize("monoid", [mon.MIN_INT64, mon.MAX_INT64],
                             ids=["min", "max"])
    def test_reduce_by_rows_packed(self, monoid):
        rng = np.random.default_rng(11)
        rows = rng.integers(0, 30, 200).astype(np.int64)
        values = rng.integers(0, 500, 200).astype(np.int64)
        self._check_rbr(values, rows, monoid, 30)

    def test_reduce_by_rows_negative_values_take_sorted_path(self):
        rng = np.random.default_rng(12)
        rows = rng.integers(0, 20, 100).astype(np.int64)
        values = rng.integers(-50, 50, 100).astype(np.int64)
        self._check_rbr(values, rows, mon.MIN_INT64, 20)

    def test_reduce_by_rows_overflow_guard_takes_sorted_path(self):
        # nrows × bound ≥ 2^62 → the packed key would overflow; both tiers
        # must agree to fall back to the stable-sort path
        rows = np.array([0, 1, 0], dtype=np.int64)
        values = np.array([2 ** 40, 5, 2 ** 41], dtype=np.int64)
        self._check_rbr(values, rows, mon.MIN_INT64, 2 ** 30)

    @pytest.mark.parametrize("monoid", [mon.MIN_FP64, mon.PLUS_FP64, mon.ANY_INT64],
                             ids=["min_f64", "plus_f64", "any"])
    def test_reduce_by_rows_sorted(self, monoid):
        rng = np.random.default_rng(13)
        rows = rng.integers(0, 25, 150).astype(np.int64)
        if monoid is mon.ANY_INT64:
            values = rng.integers(0, 99, 150).astype(np.int64)
            # ANY is keep-last over the stable row sort in both tiers
        else:
            values = rng.random(150)
        self._check_rbr(values, rows, monoid, 25)

    def test_reduce_by_rows_empty(self):
        e = np.empty(0, np.int64)
        self._check_rbr(e, e, mon.MIN_INT64, 10)


class TestMxvKernelEquivalence:
    """spmv / spmv_rows / spmspv: the LACC hot loops, both tiers."""

    A = random_adjacency(300, 1500, seed=20)

    @pytest.mark.parametrize("semiring", MXV_SEMIRINGS)
    @pytest.mark.parametrize("presence", [1.0, 0.6, 0.0],
                             ids=["full", "holes", "none"])
    def test_spmv(self, semiring, presence):
        rng = np.random.default_rng(21)
        vals = rng.integers(0, 300, 300).astype(np.int64)
        u = Vector.dense(vals, rng.random(300) < presence)
        assert_kernel_equal(
            _numpy.spmv(semiring, self.A, u),
            _compiled.spmv(semiring, self.A, u),
        )

    def test_spmv_mixed_dtype_generic_falls_back(self):
        # generic multiply over differing dtypes: NumPy-promotion territory,
        # the compiled tier must delegate and still match exactly
        s = sr.semiring("plus", "times", np.float64)
        rng = np.random.default_rng(22)
        u = Vector.dense(rng.random(300), rng.random(300) < 0.8)
        assert_kernel_equal(
            _numpy.spmv(s, self.A, u),
            _compiled.spmv(s, self.A, u),
        )

    def test_spmv_float_select2nd(self):
        # Select2nd never reads A: the product dtype follows u (float64)
        rng = np.random.default_rng(23)
        u = Vector.dense(rng.random(300), rng.random(300) < 0.7)
        assert_kernel_equal(
            _numpy.spmv(sr.SEL2ND_MIN_INT64, self.A, u),
            _compiled.spmv(sr.SEL2ND_MIN_INT64, self.A, u),
        )

    @pytest.mark.parametrize("semiring", MXV_SEMIRINGS)
    @pytest.mark.parametrize("sel", ["empty", "some", "all"])
    def test_spmv_rows(self, semiring, sel):
        rng = np.random.default_rng(24)
        vals = rng.integers(0, 300, 300).astype(np.int64)
        u = Vector.dense(vals, rng.random(300) < 0.8)
        if sel == "empty":
            rows_sel = np.empty(0, np.int64)
        elif sel == "all":
            rows_sel = np.arange(300, dtype=np.int64)
        else:
            rows_sel = np.sort(rng.choice(300, 60, replace=False)).astype(np.int64)
        assert_kernel_equal(
            _numpy.spmv_rows(semiring, self.A, u, rows_sel),
            _compiled.spmv_rows(semiring, self.A, u, rows_sel),
        )

    def test_spmv_rows_zero_degree_selection(self):
        # selected rows exist but carry no edges: the empty result must be
        # typed after the input vector in both tiers
        A = Matrix.adjacency(10, [0, 1], [1, 2])
        u = Vector.dense(np.arange(10, dtype=np.int64))
        rows_sel = np.array([5, 7, 9], dtype=np.int64)
        ref = _numpy.spmv_rows(sr.SEL2ND_MIN_INT64, A, u, rows_sel)
        got = _compiled.spmv_rows(sr.SEL2ND_MIN_INT64, A, u, rows_sel)
        assert_kernel_equal(ref, got)
        assert got[1].dtype == u.dtype

    @pytest.mark.parametrize("presence", [None, 1.0, 0.6, 0.0],
                             ids=["unscoped", "full", "holes", "none"])
    @pytest.mark.parametrize("sel", ["every", "empty", "some"])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_spmv_rows_minmax(self, presence, sel, dtype):
        rng = np.random.default_rng(29)
        vals = rng.integers(-300, 300, 300).astype(dtype)
        present = None if presence is None else rng.random(300) < presence
        rows_sel = {
            "every": None,
            "empty": np.empty(0, np.int64),
            "some": np.sort(rng.choice(300, 60, replace=False)).astype(np.int64),
        }[sel]
        ref = _numpy.spmv_rows_minmax(self.A, vals, present, rows_sel)
        got = _compiled.spmv_rows_minmax(self.A, vals, present, rows_sel)
        for r, g in zip(ref, got):
            np.testing.assert_array_equal(g, r)
            assert g.dtype == r.dtype

    @pytest.mark.parametrize("semiring", MXV_SEMIRINGS)
    @pytest.mark.parametrize("density", [0.01, 0.05, 0.25, 0.5, 1.0],
                             ids=["d1", "d5", "d25", "d50", "d100"])
    def test_spmspv_density_sweep(self, semiring, density):
        u = sparse_frontier(300, density, seed=25)
        assert_kernel_equal(
            _numpy.spmspv(semiring, self.A, u),
            _compiled.spmspv(semiring, self.A, u),
        )

    @pytest.mark.parametrize("maskkind", ["bitmap", "rows", "all_masked"])
    @pytest.mark.parametrize("density", [0.05, 0.5], ids=["sparse", "dense"])
    def test_spmspv_masked(self, maskkind, density):
        rng = np.random.default_rng(26)
        u = sparse_frontier(300, density, seed=27)
        if maskkind == "bitmap":
            kw = {"allow": rng.random(300) < 0.5}
        elif maskkind == "rows":
            kw = {"allowed_rows": np.flatnonzero(rng.random(300) < 0.5).astype(np.int64)}
        else:
            kw = {"allow": np.zeros(300, dtype=bool)}
        assert_kernel_equal(
            _numpy.spmspv(sr.SEL2ND_MIN_INT64, self.A, u, **kw),
            _compiled.spmspv(sr.SEL2ND_MIN_INT64, self.A, u, **kw),
        )

    def test_spmspv_empty_frontier(self):
        u = Vector.sparse(300, [], [])
        assert_kernel_equal(
            _numpy.spmspv(sr.SEL2ND_MIN_INT64, self.A, u),
            _compiled.spmspv(sr.SEL2ND_MIN_INT64, self.A, u),
        )

    def test_spmspv_isolated_columns(self):
        # the frontier touches only zero-degree columns: total == 0, and
        # the empty outputs must carry the *input* dtypes in both tiers
        A = Matrix.adjacency(10, [0], [1])
        u = Vector.sparse(10, [5, 7], np.array([3, 4], dtype=np.int64))
        ref = _numpy.spmspv(sr.SEL2ND_MIN_INT64, A, u)
        got = _compiled.spmspv(sr.SEL2ND_MIN_INT64, A, u)
        assert_kernel_equal(ref, got)
        assert got[3] == "spmspv"

    def test_spmspv_single_edge_graph(self):
        A = Matrix.adjacency(2, [0], [1])
        u = Vector.sparse(2, [1], np.array([0], dtype=np.int64))
        assert_kernel_equal(
            _numpy.spmspv(sr.SEL2ND_MIN_INT64, A, u),
            _compiled.spmspv(sr.SEL2ND_MIN_INT64, A, u),
        )

    def test_gather_multiply_delegates(self):
        rng = np.random.default_rng(28)
        a = rng.integers(0, 9, 20).astype(np.int64)
        b = rng.integers(0, 9, 20).astype(np.int64)
        np.testing.assert_array_equal(
            _compiled.gather_multiply(sr.SEL2ND_MIN_INT64, a, b),
            _numpy.gather_multiply(sr.SEL2ND_MIN_INT64, a, b),
        )


# ----------------------------------------------------------------------
# end-to-end: the masked-write matrix through gb.mxv, once per tier
# ----------------------------------------------------------------------

def as_dict(v: Vector):
    idx, vals = v.extract_tuples()
    return dict(zip(idx.tolist(), vals.tolist()))


def make_w(kind: str, rng) -> Vector:
    if kind == "empty":
        return Vector.empty(N, np.int64)
    if kind == "sparse":
        idx = np.flatnonzero(rng.random(N) < 0.15)
        return Vector.sparse(N, idx, rng.integers(0, 50, idx.size).astype(np.int64))
    vals = rng.integers(0, 50, N).astype(np.int64)
    present = rng.random(N) < 0.8
    return Vector.dense(vals, present)


def make_mask(kind: str, rng):
    bits = rng.random(N) < 0.4
    vals = rng.integers(0, 2, N).astype(np.int64)
    if kind == "none":
        return None, Descriptor()
    if kind == "value":
        return Vector.dense(vals, bits), Descriptor()
    if kind == "structural":
        idx = np.flatnonzero(bits)
        return (
            Mask(Vector.sparse(N, idx, np.ones(idx.size, np.int64)), structural=True),
            Descriptor(),
        )
    if kind == "scmp":
        return Vector.dense(vals, bits), Descriptor(mask_complement=True)
    if kind == "struct_comp":
        idx = np.flatnonzero(bits)
        return (
            Mask(Vector.sparse(N, idx, np.ones(idx.size, np.int64)), structural=True),
            Descriptor(mask_complement=True),
        )
    raise AssertionError(kind)


@pytest.fixture
def equiv_tier(request):
    """The non-reference tier to check: ``purepy`` registers the compiled
    module in degraded pure-Python mode (always available); ``compiled``
    is the real numba tier and skips with an explicit reason without it."""
    name = request.param
    if name == "compiled":
        if not kernels.HAVE_NUMBA:
            pytest.skip(NUMBA_MISSING_REASON)
        yield "compiled"
        return
    kernels.register_tier("purepy", _compiled)
    try:
        yield "purepy"
    finally:
        if kernels.active() == "purepy":
            kernels.set_tier("numpy")
        kernels._TIERS.pop("purepy", None)


@pytest.mark.parametrize("equiv_tier", ["purepy", "compiled"], indirect=True)
@pytest.mark.parametrize("w_kind", ["empty", "sparse", "dense"])
@pytest.mark.parametrize("mask_kind",
                         ["none", "value", "structural", "scmp", "struct_comp"])
@pytest.mark.parametrize("accum", [None, bop.PLUS], ids=["noaccum", "plus"])
@pytest.mark.parametrize("replace", [False, True], ids=["keep", "replace"])
class TestTierWriteEquivalence:
    """gb.mxv over the full masked-write matrix must be tier-invariant."""

    def check(self, equiv_tier, w_kind, mask_kind, accum, replace, op_fn, seed=7):
        results = {}
        for tier in ("numpy", equiv_tier):
            with kernels.use(tier):
                rng = np.random.default_rng(seed)  # identical inputs per tier
                w = make_w(w_kind, rng)
                mask, desc = make_mask(mask_kind, rng)
                desc = Descriptor(
                    replace=replace,
                    mask_structural=desc.mask_structural,
                    mask_complement=desc.mask_complement,
                )
                op_fn(rng, w, mask, desc, accum)
                results[tier] = as_dict(w)
        assert results["numpy"] == results[equiv_tier]

    def test_mxv_dense_input(self, equiv_tier, w_kind, mask_kind, accum, replace):
        edges_r = np.random.default_rng(0).integers(0, N, 80)
        edges_c = np.random.default_rng(1).integers(0, N, 80)
        A = Matrix.adjacency(N, edges_r, edges_c)

        def op(rng, w, mask, desc, accum):
            uv = rng.integers(0, N, N).astype(np.int64)
            u = Vector.dense(uv, rng.random(N) < 0.9)
            gb.mxv(w, mask, accum, sr.SEL2ND_MIN_INT64, A, u, desc)

        self.check(equiv_tier, w_kind, mask_kind, accum, replace, op)

    def test_mxv_sparse_input(self, equiv_tier, w_kind, mask_kind, accum, replace):
        edges_r = np.random.default_rng(0).integers(0, N, 80)
        edges_c = np.random.default_rng(1).integers(0, N, 80)
        A = Matrix.adjacency(N, edges_r, edges_c)

        def op(rng, w, mask, desc, accum):
            idx = np.flatnonzero(rng.random(N) < 0.06)
            u = Vector.sparse(N, idx, rng.integers(0, N, idx.size).astype(np.int64))
            gb.mxv(w, mask, accum, sr.SEL2ND_MIN_INT64, A, u, desc)

        self.check(equiv_tier, w_kind, mask_kind, accum, replace, op)

@pytest.mark.parametrize("equiv_tier", ["purepy", "compiled"], indirect=True)
def test_lacc_serial_tier_invariant(equiv_tier):
    """End of the line: the LACC driver's labelling must not depend on the
    kernel tier at all."""
    from repro.core import lacc
    from repro.graphs import generators as gen

    A = gen.component_mixture([60, 25, 1, 14], seed=31).to_matrix()
    with kernels.use("numpy"):
        ref = lacc(A)
    with kernels.use(equiv_tier):
        got = lacc(A)
    np.testing.assert_array_equal(got.labels, ref.labels)
    assert got.n_components == ref.n_components


# ----------------------------------------------------------------------
# registry behaviour
# ----------------------------------------------------------------------

class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in kernels.available()
        assert kernels.get("numpy") is _numpy

    def test_active_matches_impl(self):
        assert kernels.impl() is kernels.get(kernels.active())

    def test_compiled_registered_iff_numba(self):
        assert ("compiled" in kernels.available()) == kernels.HAVE_NUMBA

    def test_set_tier_roundtrip(self):
        before = kernels.active()
        prev = kernels.set_tier("numpy")
        assert prev == before
        assert kernels.active() == "numpy"
        kernels.set_tier(before)

    def test_set_tier_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown kernel tier"):
            kernels.set_tier("fortran")

    def test_use_restores_active_tier(self):
        before = kernels.active()
        with kernels.use("numpy"):
            assert kernels.active() == "numpy"
        assert kernels.active() == before

    def test_use_restores_on_exception(self):
        before = kernels.active()
        with pytest.raises(RuntimeError):
            with kernels.use("numpy"):
                raise RuntimeError("boom")
        assert kernels.active() == before

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            kernels.get("fortran")

    def test_register_tier_validates_kernel_api(self):
        incomplete = types.ModuleType("incomplete_tier")
        with pytest.raises(ValueError, match="missing required kernels"):
            kernels.register_tier("incomplete", incomplete)
        assert "incomplete" not in kernels.available()

    def test_register_tier_cannot_shadow_numpy(self):
        with pytest.raises(ValueError, match="cannot be replaced"):
            kernels.register_tier("numpy", _compiled)
        assert kernels.get("numpy") is _numpy

    def test_register_tier_numpy_identity_is_noop(self):
        kernels.register_tier("numpy", _numpy)  # must not raise
        assert kernels.get("numpy") is _numpy

    def test_register_and_dispatch_custom_tier(self):
        kernels.register_tier("purepy", _compiled)
        try:
            with kernels.use("purepy") as mod:
                assert mod is _compiled
                assert kernels.impl() is _compiled
        finally:
            kernels._TIERS.pop("purepy", None)


# ----------------------------------------------------------------------
# REPRO_KERNELS import-time selection (subprocess: fresh interpreter)
# ----------------------------------------------------------------------

_PROBE = """\
import warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro.graphblas import kernels
print(kernels.active())
print(sum("kernel tier" in str(w.message) for w in caught))
"""


def _probe_selection(env_value):
    env = dict(os.environ)
    env.pop("REPRO_KERNELS", None)
    if env_value is not None:
        env["REPRO_KERNELS"] = env_value
    src = os.path.abspath(os.path.join(os.path.dirname(repro.__file__), os.pardir))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True
    )


class TestEnvSelection:
    def test_numpy_forced_and_silent(self):
        out = _probe_selection("numpy")
        assert out.returncode == 0, out.stderr
        active, nwarn = out.stdout.split()
        assert active == "numpy"
        assert nwarn == "0"

    def test_unset_auto_selects_and_warns_without_numba(self):
        out = _probe_selection(None)
        assert out.returncode == 0, out.stderr
        active, nwarn = out.stdout.split()
        if kernels.HAVE_NUMBA:
            assert (active, nwarn) == ("compiled", "0")
        else:
            assert (active, nwarn) == ("numpy", "1")

    def test_explicit_auto_never_warns(self):
        out = _probe_selection("auto")
        assert out.returncode == 0, out.stderr
        active, nwarn = out.stdout.split()
        assert active == ("compiled" if kernels.HAVE_NUMBA else "numpy")
        assert nwarn == "0"

    def test_unknown_tier_raises(self):
        out = _probe_selection("fortran")
        assert out.returncode != 0
        assert "not a known kernel tier" in out.stderr

    def test_compiled_requested(self):
        out = _probe_selection("compiled")
        if kernels.HAVE_NUMBA:
            assert out.returncode == 0, out.stderr
            assert out.stdout.split()[0] == "compiled"
        else:
            assert out.returncode != 0
            assert "numba is not installed" in out.stderr


# ----------------------------------------------------------------------
# tier observability: the mxv span must say which tier ran
# ----------------------------------------------------------------------

class TestTierObservability:
    def _mxv(self):
        A = Matrix.adjacency(5, [0, 1, 2], [1, 2, 3])
        u = Vector.dense(np.arange(5, dtype=np.int64))
        out = Vector.empty(5)
        gb.mxv(out, None, None, sr.SEL2ND_MIN_INT64, A, u)

    def test_span_records_active_tier(self):
        tr = Tracer()
        with activate(tr):
            self._mxv()
        sp = tr.roots[0]
        assert sp.name == "mxv"
        assert sp.attrs["tier"] == kernels.active()
        assert sp.attrs["path"] == "spmv"

    def test_span_tier_follows_tier_switch(self):
        kernels.register_tier("purepy", _compiled)
        try:
            tr = Tracer()
            with kernels.use("purepy"), activate(tr):
                self._mxv()
            assert tr.roots[0].attrs["tier"] == "purepy"
        finally:
            kernels._TIERS.pop("purepy", None)
