"""Oracle test: starcheck and shortcut as passes over the parent array.

``core.starcheck.starcheck`` and ``core.shortcut.shortcut`` take and return
plain arrays.  The GraphBLAS formulations they replaced (``grandparents``
→ ``ewise_mult`` → masked ``extract`` → ``assign_scalar`` for starcheck,
``extract`` → ``assign`` for shortcut) are kept below verbatim as oracles,
with thin adapters that wrap the parent array in a ``Vector``.  On seeded
random forests the two must agree byte for byte: star flags, updated
parents and the changed count.  With the adapted oracles patched into
``repro.core.lacc``, whose loop both ``lacc`` and ``lacc_dist`` run, both
drivers must produce the same
parents and the same α–β cost totals on the differential corpus.
"""

from __future__ import annotations

import importlib
from typing import Optional

import numpy as np
import pytest

import repro.graphblas as gb
from repro.core.lacc import lacc
from repro.core.lacc_dist import lacc_dist
from repro.core.shortcut import shortcut
from repro.core.starcheck import starcheck
from repro.graphblas import Vector
from repro.graphblas import binaryops as bop
from repro.mpisim.machine import EDISON

from ..differential.corpus import FAMILIES, SEEDS, make_graph


# ----------------------------------------------------------------------
# oracles: the GraphBLAS formulations, verbatim
# ----------------------------------------------------------------------
def grandparents(f: Vector, scope: Optional[Vector] = None) -> Vector:
    """``gf = f[f]`` (Algorithm 5, lines 3–4) — optionally only for the
    vertices stored in *scope* (sparsity per Table I)."""
    gf = Vector.empty(f.size, f.dtype)
    if scope is None:
        index, value = f.extract_tuples()
        gb.extract(gf, None, None, f, value)
        # re-scatter onto the original positions in case f is not full
        out = Vector.empty(f.size, f.dtype)
        gi, gv = gf.sparse_arrays()
        hit_vals = Vector.sparse(index.size, gi, gv)
        gb.assign(out, None, None, hit_vals, index)
        return out
    si, _ = scope.sparse_arrays()
    sub = Vector.empty(si.size, f.dtype)
    gb.extract(sub, None, None, f, si)  # parents of scoped vertices
    _, parents = sub.extract_tuples()
    gsub = Vector.empty(parents.size, f.dtype)
    gb.extract(gsub, None, None, f, parents)  # grandparents
    out = Vector.empty(f.size, f.dtype)
    gi, gv = gsub.sparse_arrays()
    gb.assign(out, None, None, Vector.sparse(si.size, gi, gv), si)
    return out


def oracle_starcheck(f: Vector, active: Optional[np.ndarray] = None) -> Vector:
    n = f.size
    star = Vector.full(n, True, dtype=np.bool_)
    if n == 0:
        return star

    fv = f.to_numpy()
    if active is None:
        scope_idx = np.arange(n, dtype=np.int64)
    else:
        scope_idx = np.flatnonzero(active)
        if scope_idx.size == 0:
            return star

    # gf over the scope only
    scope_vec = Vector.sparse(n, scope_idx, fv[scope_idx])
    gf = grandparents(f, scope=scope_vec)

    # h: scoped vertices whose parent differs from their grandparent,
    # carrying the grandparent as the value (Algorithm 6 lines 4-5)
    f_scoped = Vector.sparse(n, scope_idx, fv[scope_idx])
    neq = Vector.empty(n, np.bool_)
    gb.ewise_mult(neq, None, None, bop.NE, f_scoped, gf)
    h = Vector.empty(n, f.dtype)
    gb.extract(h, neq, None, gf, None)  # value mask keeps only true entries

    # mark those vertices and their grandparents as nonstars (lines 7-10)
    index, value = h.extract_tuples()
    gb.assign_scalar(star, None, None, False, index)
    gb.assign_scalar(star, None, None, False, value)

    # star[v] &= star[f[v]] for scoped vertices (lines 12-14).  The paper
    # writes this as extract + masked assign; the net effect must only ever
    # *clear* flags — a level-3 vertex whose level-2 parent is still
    # (transiently) flagged true must not be resurrected, so we combine
    # with logical AND rather than overwrite.
    parent_star = Vector.empty(scope_idx.size, np.bool_)
    gb.extract(parent_star, None, None, star, fv[scope_idx])
    self_star = Vector.empty(scope_idx.size, np.bool_)
    gb.extract(self_star, None, None, star, scope_idx)
    combined = Vector.empty(scope_idx.size, np.bool_)
    gb.ewise_mult(combined, None, None, bop.LAND, parent_star, self_star)
    ci, cv = combined.sparse_arrays()
    gb.assign(star, None, None, Vector.sparse(scope_idx.size, ci, cv), scope_idx)
    return star


def oracle_shortcut(f: Vector, scope: Optional[np.ndarray] = None) -> int:
    n = f.size
    if n == 0:
        return 0
    if scope is None:
        idx = np.arange(n, dtype=np.int64)
    else:
        idx = np.flatnonzero(scope)
        if idx.size == 0:
            return 0

    fv = f.to_numpy()
    # gf = f[f] on the scope (GrB_extract with f-values as indices)
    parents = fv[idx]
    gf = Vector.empty(idx.size, f.dtype)
    gb.extract(gf, None, None, f, parents)
    gi, gv = gf.sparse_arrays()
    changed = int(np.count_nonzero(gv != parents[gi]))
    # f ← gf on the scope (GrB_assign)
    gb.assign(f, None, None, Vector.sparse(idx.size, gi, gv), idx)
    return changed


# ----------------------------------------------------------------------
# adapters: the oracles on the array signatures of the steps
# ----------------------------------------------------------------------
def array_oracle_starcheck(f: np.ndarray, active: Optional[np.ndarray] = None) -> np.ndarray:
    return oracle_starcheck(Vector.dense(f), active).to_numpy()


def array_oracle_shortcut(f: np.ndarray, scope: Optional[np.ndarray] = None) -> int:
    v = Vector.dense(f)
    changed = oracle_shortcut(v, scope)
    f[:] = v.to_numpy()
    return changed


# ----------------------------------------------------------------------
# seeded random forests
# ----------------------------------------------------------------------
SCOPES = ("none", "empty", "subset", "all")
FUZZ_SEEDS = range(40)


def random_forest(rng: np.random.Generator, n: int, depth: int) -> np.ndarray:
    """Parent array of a random forest on *n* vertices: every vertex gets a
    level in ``0..depth`` (each level populated), level-0 vertices are
    roots and a level-k vertex points at a random level-(k-1) vertex."""
    f = np.arange(n, dtype=np.int64)
    if n == 0:
        return f
    depth = min(depth, n - 1)
    order = rng.permutation(n)
    level = rng.integers(0, depth + 1, n)
    level[: depth + 1] = np.arange(depth + 1)
    for k in range(1, depth + 1):
        kids, above = order[level == k], order[level == k - 1]
        f[kids] = above[rng.integers(0, above.size, kids.size)]
    return f


def random_scope(rng: np.random.Generator, n: int, kind: str) -> Optional[np.ndarray]:
    if kind == "none":
        return None
    if kind == "empty":
        return np.zeros(n, dtype=bool)
    if kind == "all":
        return np.ones(n, dtype=bool)
    return rng.random(n) < rng.random()


def fuzz_case(seed: int, kind: str):
    rng = np.random.default_rng(seed)
    n = 0 if seed == 0 else int(rng.integers(1, 3001))
    parents = random_forest(rng, n, int(rng.integers(1, 9)))
    return parents, random_scope(rng, n, kind)


def test_random_forest_is_a_forest():
    rng = np.random.default_rng(0)
    f = random_forest(rng, 500, 8)
    root = f.copy()
    for _ in range(9):
        root = root[root]
    assert (f[root] == root).all()  # every chain ends at a self-loop
    assert np.count_nonzero(f[f] != f) > 0  # and some trees are deep


@pytest.mark.parametrize("kind", SCOPES)
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_starcheck_matches_graphblas_oracle(seed, kind):
    parents, scope = fuzz_case(seed, kind)
    got = starcheck(parents, scope)
    want = oracle_starcheck(Vector.dense(parents), scope)
    assert want.present_array().all()
    want = want.to_numpy()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", SCOPES)
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_shortcut_matches_graphblas_oracle(seed, kind):
    parents, scope = fuzz_case(seed, kind)
    got, want = parents.copy(), Vector.dense(parents)
    assert shortcut(got, scope) == oracle_shortcut(want, scope)
    assert want.present_array().all()
    assert got.dtype == want.dtype
    assert got.tobytes() == want.to_numpy().tobytes()


# ----------------------------------------------------------------------
# drivers with the oracles patched in
# ----------------------------------------------------------------------
def _run(driver: str, g):
    if driver == "lacc":
        res = lacc(g.to_matrix())
        return res.parents.tobytes(), res.n_iterations, None
    res = lacc_dist(g.to_matrix(), EDISON, nodes=4)
    return (
        res.parents.tobytes(),
        res.n_iterations,
        (res.cost.total_seconds, res.cost.total_words),
    )


@pytest.mark.parametrize("driver", ["lacc", "lacc_dist"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_drivers_match_graphblas_oracle(monkeypatch, family, seed, driver):
    g = make_graph(family, seed)
    got = _run(driver, g)
    # both drivers run the loop of repro.core.lacc, which looks its steps
    # up in that module's namespace
    mod = importlib.import_module("repro.core.lacc")
    monkeypatch.setattr(mod, "starcheck", array_oracle_starcheck)
    monkeypatch.setattr(mod, "shortcut", array_oracle_shortcut)
    assert got == _run(driver, g)
