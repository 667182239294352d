"""Oracle test: hooking and the convergence check on the parent array.

``core.hooking.cond_hook``/``uncond_hook`` take the parent array and the
star bitmap, filter the masked mxv output and scatter onto the roots with
array operations, and ``core.convergence.converged_star_vertices`` takes
the min and max neighbouring parent from one ``spmv_rows_minmax`` kernel
call.  The GraphBLAS formulations they replaced (``ewise_mult`` →
value-masked ``extract`` → ``ewise_mult`` → ``Vector.sparse(dedup="min")``
→ ``assign`` for hooking, two masked ``mxv`` calls for the convergence
check) are kept below verbatim as oracles, with thin adapters that wrap
the arrays in ``Vector`` objects.  On seeded random graphs, forests and
star/active bitmaps the two must agree byte for byte: updated parents,
every ``HookReport`` field and the converged bitmap.  With the adapted
oracles patched into ``repro.core.lacc``, whose loop both ``lacc`` and
``lacc_dist`` run, both drivers must produce the same parents, iterations
and α–β cost totals on the differential corpus.
"""

from __future__ import annotations

import importlib
from typing import Optional

import numpy as np
import pytest

import repro.graphblas as gb
from repro.core.convergence import converged_star_vertices
from repro.core.hooking import HookReport, cond_hook, uncond_hook
from repro.core.lacc import lacc
from repro.core.lacc_dist import lacc_dist
from repro.core.starcheck import starcheck
from repro.graphblas import Matrix, Vector
from repro.graphblas import binaryops as bop
from repro.graphblas import semirings as sr
from repro.graphblas.descriptor import Mask
from repro.mpisim.machine import EDISON

from ..differential.corpus import FAMILIES, SEEDS, make_graph
from .test_pointer_jumping import random_forest


# ----------------------------------------------------------------------
# oracles: the GraphBLAS formulations, verbatim
# ----------------------------------------------------------------------
def _scatter_hooks(f: Vector, fn: Vector):
    """Steps 2–3 shared by both hooking variants.

    *fn* holds, for each hook vertex, the new parent id to give its root.
    Identify the roots (``f_h = f`` on fn's pattern — within a star only
    the root can be a parent), combine duplicate proposals with min, and
    scatter ``f[f_h] = f_n`` (Algorithm 3, lines 6–12).
    Returns a :class:`HookReport`.
    """
    fh = Vector.empty(f.size, f.dtype)
    gb.ewise_mult(fh, None, None, bop.FIRST, f, fn)  # parents of hooks
    hook_vertices, roots = fh.extract_tuples()
    _, newpar = fn.extract_tuples()
    if roots.size == 0:
        return HookReport(0, roots, newpar, hook_vertices)
    merged = Vector.sparse(f.size, roots, newpar, dedup="min")
    idx, vals = merged.extract_tuples()
    gb.assign(f, None, None, Vector.dense(vals), idx)
    return HookReport(int(idx.size), idx, vals, hook_vertices)


def _star_scope_mask(star: Vector, active: Optional[np.ndarray]) -> Mask:
    sv, sp_ = star.dense_arrays()
    allow = sv & sp_
    if active is not None:
        allow = allow & active
    return Mask.from_bitmap(allow)


def scoped_input(f: Vector, active: Optional[np.ndarray]) -> Vector:
    if active is None or active.all():
        return f
    idx = np.flatnonzero(active)
    fv = f.to_numpy()
    return Vector.sparse(f.size, idx, fv[idx])


def oracle_cond_hook(
    A: "gb.Matrix",
    f: Vector,
    star: Vector,
    active: Optional[np.ndarray] = None,
) -> "HookReport":
    n = f.size
    star_mask = _star_scope_mask(star, active)

    # Step 1: fn[i] = min parent among neighbours of star vertex i
    fn = Vector.empty(n, f.dtype)
    u_in = scoped_input(f, active)
    gb.mxv(fn, star_mask, None, sr.SEL2ND_MIN_INT64, A, u_in)

    # Keep strict improvements only (the f[u] > f[v] condition): without
    # this filter stale proposals equal to the current root id would count
    # as hooks and the convergence test would never fire.
    improves = Vector.empty(n, np.bool_)
    gb.ewise_mult(improves, None, None, bop.LT, fn, f)
    hooks = Vector.empty(n, f.dtype)
    gb.extract(hooks, improves, None, fn, None)  # value mask: true entries

    return _scatter_hooks(f, hooks)


def oracle_uncond_hook(
    A: "gb.Matrix",
    f: Vector,
    star: Vector,
    active: Optional[np.ndarray] = None,
) -> "HookReport":
    n = f.size
    sv, sp_ = star.dense_arrays()
    nonstar_allow = sp_ & ~sv
    if active is not None:
        nonstar_allow = nonstar_allow & active

    # Step 1: parents of nonstar vertices (sparse input vector)
    fns = Vector.empty(n, f.dtype)
    gb.extract(fns, Mask.from_bitmap(nonstar_allow), None, f, None)
    if fns.nvals == 0:
        empty = np.empty(0, dtype=np.int64)
        return HookReport(0, empty, empty, empty)

    # Step 2: for star vertices, min parent among *nonstar* neighbours
    star_mask = _star_scope_mask(star, active)
    fn = Vector.empty(n, f.dtype)
    gb.mxv(fn, star_mask, None, sr.SEL2ND_MIN_INT64, A, fns)

    # A star root may be proposed its own id when a level-2 nonstar vertex
    # points back at it; such no-op hooks must not count (f[u] != f[v]).
    ne = Vector.empty(n, np.bool_)
    gb.ewise_mult(ne, None, None, bop.NE, fn, f)
    hooks = Vector.empty(n, f.dtype)
    gb.extract(hooks, ne, None, fn, None)

    return _scatter_hooks(f, hooks)


def oracle_converged_star_vertices(
    A: Matrix,
    f: Vector,
    star: Vector,
    active: Optional[np.ndarray],
) -> np.ndarray:
    n = f.size
    sv, sp_ = star.dense_arrays()
    star_allow = sv & sp_
    if active is not None:
        star_allow = star_allow & active
    if not star_allow.any():
        return star_allow

    fv = f.to_numpy()
    u_in = scoped_input(f, active)

    # from_bitmap: a shrinking survivor set gets a sparse structural mask,
    # so both mxv calls stream only the surviving stars' rows
    star_mask = Mask.from_bitmap(star_allow)
    fmin = Vector.empty(n, f.dtype)
    gb.mxv(fmin, star_mask, None, sr.SEL2ND_MIN_INT64, A, u_in)
    fmax = Vector.empty(n, f.dtype)
    gb.mxv(fmax, star_mask, None, sr.SEL2ND_MAX_INT64, A, u_in)

    # a member u sees an external tree iff min or max neighbouring parent
    # differs from its own root f[u]
    external = np.zeros(n, dtype=bool)
    for fn in (fmin, fmax):
        fi, fvals = fn.sparse_arrays()
        diff = fvals != fv[fi]
        external[fi[diff]] = True

    # a star converges only when *no* member is external: mark bad roots
    bad_root = np.zeros(n, dtype=bool)
    ext_idx = np.flatnonzero(external)
    if ext_idx.size:
        bad_root[fv[ext_idx]] = True
    return star_allow & ~bad_root[fv]


# ----------------------------------------------------------------------
# adapters: the oracles on the array signatures of the steps
# ----------------------------------------------------------------------
def on_arrays(oracle):
    """*oracle* (Vector parent and star) as a step on the parent array,
    which it updates in place.  The loop's ``fresh`` promise about the
    state is accepted and not used: the oracle always runs its mxv."""

    def step(A, f: np.ndarray, star: np.ndarray, active: Optional[np.ndarray] = None,
             fresh: bool = False):
        v = Vector.dense(f)
        report = oracle(A, v, Vector.dense(star), active)
        f[:] = v.to_numpy()
        return report

    return step


array_oracle_cond_hook = on_arrays(oracle_cond_hook)
array_oracle_uncond_hook = on_arrays(oracle_uncond_hook)


def array_oracle_converged_star_vertices(A, f, star, active):
    return oracle_converged_star_vertices(A, Vector.dense(f), Vector.dense(star), active)


# ----------------------------------------------------------------------
# seeded random graphs, forests and bitmaps
# ----------------------------------------------------------------------
STARS = ("forest", "random", "partial")
ACTIVES = ("none", "empty", "subset", "all")
FUZZ_SEEDS = range(30)


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.random(n) < rng.random()


def fuzz_case(seed: int, star_kind: str, active_kind: str):
    """(A, parents, star, active) for one seed: a random graph on *n*
    vertices with isolated vertices and duplicate edge draws, a random
    forest, a star bitmap (the forest's true stars, a random bitmap, or the
    true stars with a random subset cleared) and an active bitmap."""
    rng = np.random.default_rng(seed)
    n = 0 if seed == 0 else int(rng.integers(1, 600))
    m = int(rng.integers(0, 4 * n + 1))
    A = Matrix.adjacency(n, rng.integers(0, max(n, 1), m), rng.integers(0, max(n, 1), m))
    parents = random_forest(rng, n, int(rng.integers(1, 5)))
    if star_kind == "forest":
        star = starcheck(parents)
    elif star_kind == "random":
        star = random_bits(rng, n)
    else:
        star = starcheck(parents) & random_bits(rng, n)
    active = {
        "none": None,
        "empty": np.zeros(n, dtype=bool),
        "all": np.ones(n, dtype=bool),
        "subset": random_bits(rng, n),
    }[active_kind]
    return A, parents, star, active


def assert_same_report(got: HookReport, want: HookReport):
    assert got.count == want.count
    for field in ("roots", "new_parents", "hook_vertices"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype, field
        assert g.tobytes() == w.tobytes(), field


@pytest.mark.parametrize("active_kind", ACTIVES)
@pytest.mark.parametrize("star_kind", STARS)
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
@pytest.mark.parametrize(
    "step, oracle",
    [(cond_hook, array_oracle_cond_hook), (uncond_hook, array_oracle_uncond_hook)],
    ids=["cond_hook", "uncond_hook"],
)
def test_hook_matches_graphblas_oracle(step, oracle, seed, star_kind, active_kind):
    A, parents, star, active = fuzz_case(seed, star_kind, active_kind)
    got, want = parents.copy(), parents.copy()
    assert_same_report(step(A, got, star, active), oracle(A, want, star, active))
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("active_kind", ACTIVES)
@pytest.mark.parametrize("star_kind", STARS)
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_converged_matches_graphblas_oracle(seed, star_kind, active_kind):
    A, parents, star, active = fuzz_case(seed, star_kind, active_kind)
    got = converged_star_vertices(A, parents, star, active)
    want = array_oracle_converged_star_vertices(A, parents, star, active)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_converged_accepts_int32_parents(seed):
    A, parents, star, active = fuzz_case(seed, "random", "subset")
    want = array_oracle_converged_star_vertices(A, parents, star, active)
    got = converged_star_vertices(A, parents.astype(np.int32), star, active)
    assert got.tobytes() == want.tobytes()


def test_fuzz_covers_active_stars_with_inactive_neighbours():
    """The scoped input ignores inactive neighbours; the fuzz must reach
    that case, with and without external edges among the active ones."""
    seen = 0
    for seed in FUZZ_SEEDS:
        A, _, star, active = fuzz_case(seed, "random", "subset")
        if A.nvals == 0:
            continue
        rows = A.coo_rows()
        star_rows = (star & active)[rows]
        seen += int(np.count_nonzero(star_rows & ~active[A.indices]) > 0)
    assert seen >= 10


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
    monkeypatch.setattr(mod, "cond_hook", array_oracle_cond_hook)
    monkeypatch.setattr(mod, "uncond_hook", array_oracle_uncond_hook)
    monkeypatch.setattr(
        mod, "converged_star_vertices", array_oracle_converged_star_vertices
    )
    assert got == _run(driver, g)
