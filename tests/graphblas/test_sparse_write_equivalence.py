"""Equivalence suite for the sparse masked-write and mask-pushdown paths.

Every operation is run twice on identical inputs — once with the masked
write forced onto the dense Θ(n) formulation (the pre-sparsification
oracle) and once forced onto the O(nvals) sorted-merge path — across the
full semantics matrix: output representation × mask kind (none, value,
structural, complemented, structurally-complemented) × accumulator ×
``GrB_REPLACE``.  ``mxv`` additionally toggles the mask pushdown so the
row-skipping kernels are checked against the unmasked-kernel + write-time
masking oracle.
"""

import numpy as np
import pytest

import repro.graphblas as gb
from repro.graphblas import Matrix, Vector
from repro.graphblas import binaryops as bop
from repro.graphblas import ops
from repro.graphblas import semirings as sr
from repro.graphblas.descriptor import Descriptor, Mask

N = 40


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
    """Returns (mask, descriptor) pairs covering every mask semantic."""
    bits = rng.random(N) < 0.4
    vals = rng.integers(0, 2, N).astype(np.int64)  # mix of falsy/truthy values
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


W_KINDS = ["empty", "sparse", "dense"]
MASK_KINDS = ["none", "value", "structural", "scmp", "struct_comp"]
ACCUMS = [None, bop.PLUS]
REPLACES = [False, True]


def both_paths(monkeypatch, run, seed):
    """Run *run(w, mask, desc)* on both write paths; return the dicts."""
    results = {}
    for path in ("dense", "sparse"):
        monkeypatch.setattr(ops, "_FORCE_WRITE_PATH", path)
        rng = np.random.default_rng(seed)  # identical inputs per path
        results[path] = run(rng)
    monkeypatch.setattr(ops, "_FORCE_WRITE_PATH", None)
    return results["dense"], results["sparse"]


def apply_desc(desc: Descriptor, replace: bool) -> Descriptor:
    return Descriptor(
        replace=replace,
        mask_structural=desc.mask_structural,
        mask_complement=desc.mask_complement,
    )


@pytest.mark.parametrize("w_kind", W_KINDS)
@pytest.mark.parametrize("mask_kind", MASK_KINDS)
@pytest.mark.parametrize("accum", ACCUMS, ids=["noaccum", "plus"])
@pytest.mark.parametrize("replace", REPLACES, ids=["keep", "replace"])
class TestWritePathEquivalence:
    def check(self, monkeypatch, w_kind, mask_kind, accum, replace, op_fn, seed=7):
        def run(rng):
            w = make_w(w_kind, rng)
            mask, desc = make_mask(mask_kind, rng)
            op_fn(rng, w, mask, apply_desc(desc, replace), accum)
            return as_dict(w)

        dense, sparse = both_paths(monkeypatch, run, seed)
        assert dense == sparse

    def test_mxv(self, monkeypatch, w_kind, mask_kind, accum, replace):
        edges_r = np.random.default_rng(0).integers(0, N, 80)
        edges_c = np.random.default_rng(1).integers(0, N, 80)
        A = Matrix.adjacency(N, edges_r, edges_c)

        def op(rng, w, mask, desc, accum):
            uv = rng.integers(0, N, N).astype(np.int64)
            u = Vector.dense(uv, rng.random(N) < 0.9)
            gb.mxv(w, mask, accum, sr.SEL2ND_MIN_INT64, A, u, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_mxv_sparse_input(self, monkeypatch, w_kind, mask_kind, accum, replace):
        edges_r = np.random.default_rng(0).integers(0, N, 80)
        edges_c = np.random.default_rng(1).integers(0, N, 80)
        A = Matrix.adjacency(N, edges_r, edges_c)

        def op(rng, w, mask, desc, accum):
            idx = np.flatnonzero(rng.random(N) < 0.06)
            u = Vector.sparse(N, idx, rng.integers(0, N, idx.size).astype(np.int64))
            gb.mxv(w, mask, accum, sr.SEL2ND_MIN_INT64, A, u, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_ewise_mult(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            u = make_w("dense", rng)
            v = make_w("sparse", rng)
            gb.ewise_mult(w, mask, accum, bop.PLUS, u, v, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_extract_all(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            u = make_w("dense", rng)
            gb.extract(w, mask, accum, u, None, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_extract_indexed(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            u = make_w("sparse", rng)
            idx = rng.integers(0, N, N)  # duplicates allowed
            gb.extract(w, mask, accum, u, idx, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_assign(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            k = 10
            idx = rng.choice(N, size=k, replace=False)
            u = Vector.dense(rng.integers(0, 50, k).astype(np.int64))
            gb.assign(w, mask, accum, u, idx, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

    def test_assign_scalar(self, monkeypatch, w_kind, mask_kind, accum, replace):
        def op(rng, w, mask, desc, accum):
            idx = rng.choice(N, size=12, replace=False)
            gb.assign_scalar(w, mask, accum, 99, idx, desc)

        self.check(monkeypatch, w_kind, mask_kind, accum, replace, op)

@pytest.mark.parametrize("mask_kind", MASK_KINDS)
@pytest.mark.parametrize("replace", REPLACES, ids=["keep", "replace"])
@pytest.mark.parametrize("density", [0.05, 0.5], ids=["sparse_u", "dense_u"])
class TestMaskPushdownEquivalence:
    """Masked mxv with kernels skipping masked-out rows must equal the
    unmasked-kernel + write-time-mask oracle."""

    def test_mxv(self, monkeypatch, mask_kind, replace, density):
        edges_r = np.random.default_rng(2).integers(0, N, 120)
        edges_c = np.random.default_rng(3).integers(0, N, 120)
        A = Matrix.adjacency(N, edges_r, edges_c)

        results = {}
        for pushdown in (False, True):
            monkeypatch.setattr(ops, "MASK_PUSHDOWN", pushdown)
            rng = np.random.default_rng(11)
            idx = np.flatnonzero(rng.random(N) < density)
            u = Vector.sparse(N, idx, rng.integers(0, N, idx.size).astype(np.int64))
            w = make_w("dense", rng)
            mask, desc = make_mask(mask_kind, rng)
            gb.mxv(w, mask, None, sr.SEL2ND_MIN_INT64, A, u, apply_desc(desc, replace))
            results[pushdown] = as_dict(w)
        monkeypatch.setattr(ops, "MASK_PUSHDOWN", True)
        assert results[False] == results[True]
