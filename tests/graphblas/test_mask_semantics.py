"""Property tests: the full GraphBLAS write semantics against a
brute-force reference model.

The reference implements the spec directly on dicts::

    T = computed result
    Z = T                      (no accumulator)
      = union_merge(W, T)      (with accumulator)
    W⟨mask⟩        = (Z ∩ allow) ∪ (W ∩ ¬allow)
    W⟨mask, repl⟩  =  Z ∩ allow

and the hypothesis tests drive extract / assign / eWise ops through every
combination of mask kind (none / value / structural), complement, replace,
and accumulator — the matrix of behaviours LACC's steps rely on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphblas as gb
from repro.graphblas import Vector
from repro.graphblas import binaryops as bop
from repro.graphblas.descriptor import Descriptor, Mask

N = 12


# ----------------------------------------------------------------------
# reference model
# ----------------------------------------------------------------------

def ref_allow(mask_dict, structural, complement, size):
    base = np.zeros(size, dtype=bool)
    for i, v in mask_dict.items():
        base[i] = True if structural else bool(v)
    return ~base if complement else base


def ref_write(w, t, allow, accum, replace):
    """Spec write: dicts in, dict out."""
    if accum is not None:
        z = dict(w)
        for i, v in t.items():
            z[i] = accum(z[i], v) if i in z else v
    else:
        z = t
    out = {}
    for i in range(allow.size):
        if allow[i]:
            if i in z:
                out[i] = z[i]
        else:
            if not replace and i in w:
                out[i] = w[i]
    return out


def to_vec(d, size, dtype=np.int64):
    idx = sorted(d)
    return Vector.sparse(size, idx, [d[i] for i in idx], dtype=dtype)


def as_dict(v):
    idx, vals = v.sparse_arrays()
    return {int(i): x.item() for i, x in zip(idx, vals)}


sparse_dict = st.dictionaries(
    st.integers(min_value=0, max_value=N - 1),
    st.integers(min_value=-50, max_value=50),
    max_size=N,
)
mask_dict = st.dictionaries(
    st.integers(min_value=0, max_value=N - 1), st.booleans(), max_size=N
)
flags = st.tuples(st.booleans(), st.booleans(), st.booleans())  # structural, complement, replace
maybe_accum = st.sampled_from([None, bop.PLUS, bop.MIN, bop.SECOND])


class TestExtractSemantics:
    @settings(max_examples=120, deadline=None)
    @given(sparse_dict, sparse_dict, mask_dict, flags, maybe_accum)
    def test_extract_all_matches_reference(self, wd, ud, md, f, accum):
        structural, complement, replace = f
        w = to_vec(wd, N)
        u = to_vec(ud, N)
        mask = Mask(to_vec({k: int(v) for k, v in md.items()}, N, np.bool_),
                    structural=structural, complement=complement)
        desc = Descriptor(replace=replace)
        gb.extract(w, mask, accum, u, None, desc)
        allow = ref_allow(md, structural, complement, N)
        expected = ref_write(wd, ud, allow, accum, replace)
        assert as_dict(w) == expected

    @settings(max_examples=80, deadline=None)
    @given(sparse_dict, sparse_dict, st.lists(st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=N))
    def test_extract_indexed_matches_reference(self, wd, ud, indices):
        w = to_vec({k: v for k, v in wd.items() if k < len(indices)}, len(indices))
        u = to_vec(ud, N)
        gb.extract(w, None, None, u, indices)
        expected = {
            k: ud[ix] for k, ix in enumerate(indices) if ix in ud
        }
        assert as_dict(w) == expected


class TestAssignSemantics:
    @settings(max_examples=80, deadline=None)
    @given(sparse_dict, sparse_dict, st.booleans())
    def test_assign_all_matches_reference(self, wd, ud, replace):
        w = to_vec(wd, N)
        u = to_vec(ud, N)
        gb.assign(w, None, None, u, None, Descriptor(replace=replace))
        # unmasked GrB_ALL assign: region is everything, W becomes exactly U
        assert as_dict(w) == ud

    @settings(max_examples=80, deadline=None)
    @given(sparse_dict, mask_dict, st.booleans(),
           st.integers(min_value=-9, max_value=9),
           st.lists(st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=N, unique=True))
    def test_assign_scalar_matches_reference(self, wd, md, complement, value, indices):
        w = to_vec(wd, N)
        mask = Mask(to_vec({k: int(v) for k, v in md.items()}, N, np.bool_),
                    complement=complement)
        gb.assign_scalar(w, mask, None, value, indices)
        allow = ref_allow(md, False, complement, N)
        expected = dict(wd)
        for i in indices:
            if allow[i]:
                expected[i] = value
        assert as_dict(w) == expected

    @settings(max_examples=60, deadline=None)
    @given(sparse_dict, sparse_dict,
           st.lists(st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=6, unique=True))
    def test_assign_region_semantics(self, wd, ud, indices):
        """Within the region, W takes U's pattern; outside it is untouched."""
        u_small = {k: v for k, v in ud.items() if k < len(indices)}
        w = to_vec(wd, N)
        gb.assign(w, None, None, to_vec(u_small, len(indices)), indices)
        expected = {i: v for i, v in wd.items() if i not in indices}
        for k, ix in enumerate(indices):
            if k in u_small:
                expected[ix] = u_small[k]
        assert as_dict(w) == expected


class TestEwiseSemantics:
    @settings(max_examples=100, deadline=None)
    @given(sparse_dict, sparse_dict, sparse_dict, mask_dict, flags, maybe_accum)
    def test_ewise_mult_matches_reference(self, wd, ud, vd, md, f, accum):
        structural, complement, replace = f
        w = to_vec(wd, N)
        u = to_vec(ud, N)
        v = to_vec(vd, N)
        mask = Mask(to_vec({k: int(x) for k, x in md.items()}, N, np.bool_),
                    structural=structural, complement=complement)
        gb.ewise_mult(w, mask, accum, bop.PLUS, u, v, Descriptor(replace=replace))
        t = {i: ud[i] + vd[i] for i in set(ud) & set(vd)}
        allow = ref_allow(md, structural, complement, N)
        assert as_dict(w) == ref_write(wd, t, allow, accum, replace)

class TestMxvSemantics:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), mask_dict, flags, maybe_accum)
    def test_mxv_full_semantics(self, seed, md, f, accum):
        structural, complement, replace = f
        rng = np.random.default_rng(seed)
        ne = int(rng.integers(0, 30))
        A = gb.Matrix.adjacency(N, rng.integers(0, N, ne), rng.integers(0, N, ne))
        k = int(rng.integers(0, N + 1))
        uidx = rng.choice(N, size=k, replace=False)
        ud = {int(i): int(x) for i, x in zip(uidx, rng.integers(0, 100, k))}
        wd = {int(i): int(x) for i, x in
              zip(rng.choice(N, size=int(rng.integers(0, N)), replace=False),
                  rng.integers(0, 100, N))}
        w = to_vec(wd, N)
        u = to_vec(ud, N)
        mask = Mask(to_vec({kk: int(v) for kk, v in md.items()}, N, np.bool_),
                    structural=structural, complement=complement)
        gb.mxv(w, mask, accum, gb.semirings.SEL2ND_MIN_INT64, A, u,
               Descriptor(replace=replace))
        # reference T
        t = {}
        for i in range(N):
            cols, _ = A.row(i)
            cand = [ud[int(j)] for j in cols if int(j) in ud]
            if cand:
                t[i] = min(cand)
        allow = ref_allow(md, structural, complement, N)
        assert as_dict(w) == ref_write(wd, t, allow, accum, replace)
