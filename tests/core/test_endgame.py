"""The two exact skips of the serial loop's endgame.

* **Rule A** (``core.hooking.cond_hook``): when every scoped vertex has
  the same parent, no star has a scoped neighbour with a smaller parent,
  so the conditional hook returns the empty report without its mxv.
* **Rule B** (``core.lacc._run``, Lemma-1 block): after an iteration in
  which neither hook fired, every active star's active neighbours share
  its root (a nonstar neighbour would have hooked it unconditionally, a
  star neighbour under another root conditionally), so the converged
  stars are ``star & active`` without the ``spmv_rows_minmax`` pass.

Both skipped kernels are called directly here and must agree with the
skip: on the states the loop reaches on every corpus family and seed,
``rmat(scale=10)`` and a path, and on seeded random forest, star and
active states.  On a single-component graph the final iteration then
streams the matrix neither for a hook nor for Lemma 1.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from scipy.sparse import csgraph

from repro.core.convergence import converged_star_vertices
from repro.core.hooking import (
    _min_neighbour_parent,
    _scatter_hooks,
    cond_hook,
    uncond_hook,
)
from repro.core.lacc import lacc
from repro.core.starcheck import starcheck
from repro.graphblas import Matrix
from repro.graphblas import kernels as _kernels
from repro.graphs import generators as gen
from repro.obs.tracer import Tracer, activate

from ..differential.corpus import FAMILIES, SEEDS, make_graph, oracle_labels
from .test_hook_oracle import assert_same_report, random_bits
from .test_pointer_jumping import random_forest, random_scope

LOOP = importlib.import_module("repro.core.lacc")
FUZZ_SEEDS = range(40)


def mxv_cond_hook(A, f, star, active=None):
    """``cond_hook`` without rule A: the masked mxv, the strict-improvement
    filter and the hook scatter, always."""
    idx, vals = _min_neighbour_parent(A, f, star, active, active)
    hook = vals < f[idx]
    return _scatter_hooks(f, idx[hook], vals[hook])


def one_parent(f, active) -> bool:
    """Rule A's premise, stated plainly: at most one distinct parent in
    scope."""
    scoped = f if active is None else f[active]
    return np.unique(scoped).size <= 1


def assert_cond_hook_exact(A, f, star, active, fresh=False):
    got, want = f.copy(), f.copy()
    assert_same_report(cond_hook(A, got, star, active, fresh=fresh),
                       mxv_cond_hook(A, want, star, active))
    assert got.tobytes() == want.tobytes()


def assert_converged_exact(A, f, star, active):
    """Rule B's conclusion: the Lemma-1 kernel retires exactly the active
    stars."""
    allow = star if active is None else star & active
    got = converged_star_vertices(A, f, star, active)
    assert got.tobytes() == allow.tobytes()


def graphs():
    cases = [(f"{fam}-{seed}", make_graph(fam, seed))
             for fam in sorted(FAMILIES) for seed in SEEDS]
    cases.append(("rmat10", gen.rmat(scale=10, edge_factor=8, seed=1)))
    cases.append(("path", gen.path_graph(200)))
    return cases


GRAPHS = graphs()


@pytest.fixture
def recorded(monkeypatch):
    """Run ``lacc`` with the loop's two hooks wrapped.  Every conditional
    hook is checked against the mxv path; every iteration's Lemma-1 state
    goes through the kernel rule B skips, which must retire exactly the
    active stars after a hook-free iteration, and exactly the vertices
    the loop retired after every iteration.  Counts the states where each
    rule's premise held."""
    rec = {"A": 0, "B": 0, "cond": None, "active": None}

    def checked_cond_hook(A, f, star, active=None, fresh=False):
        if rec["active"] is not None:
            assert active.tobytes() == rec["active"].tobytes()
        if one_parent(f, active):
            rec["A"] += 1
        assert_cond_hook_exact(A, f, star, active, fresh)
        rep = cond_hook(A, f, star, active, fresh=fresh)
        rec["cond"] = rep.count
        return rep

    def checked_uncond_hook(A, f, star, active=None):
        rep = uncond_hook(A, f, star, active)
        if active is not None:
            lemma1_star = starcheck(f, active)
            if rec["cond"] == 0 and rep.count == 0:
                # neither hook moved f: Lemma 1 sees the hooks' star bitmap
                assert lemma1_star.tobytes() == star.tobytes()
                assert_converged_exact(A, f, star, active)
                rec["B"] += 1
            rec["active"] = active & ~converged_star_vertices(A, f, lemma1_star, active)
        return rep

    monkeypatch.setattr(LOOP, "cond_hook", checked_cond_hook)
    monkeypatch.setattr(LOOP, "uncond_hook", checked_uncond_hook)
    return rec


@pytest.mark.parametrize("name, g", GRAPHS, ids=[name for name, _ in GRAPHS])
def test_loop_states_agree_with_the_skipped_kernels(recorded, name, g):
    res = lacc(g.to_matrix())
    want = oracle_labels(g)
    assert np.array_equal(res.labels, want)
    last = res.stats.iterations[-1]
    assert last.converged_vertices == g.n - np.count_nonzero(recorded["active"])
    if np.unique(want).size == 1:
        # a connected graph ends on a one-parent, hook-free iteration
        assert recorded["A"] >= 1 and recorded["B"] >= 1


def fuzz_graph(rng: np.random.Generator):
    n = int(rng.integers(1, 400))
    m = int(rng.integers(0, 3 * n + 1))
    return n, Matrix.adjacency(n, rng.integers(0, n, m), rng.integers(0, n, m))


@pytest.mark.parametrize("outliers", [0, 1, 3])
@pytest.mark.parametrize("active_kind", ["none", "empty", "all", "subset"])
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_rule_a_on_random_one_parent_states(seed, active_kind, outliers):
    """Any parent array whose scope shares one parent (the parent inside
    the scope or not), less a few *outliers* given random parents, with a
    random forest outside the scope and any star bitmap: ``cond_hook``
    equals the mxv path, skipping it only when no outlier breaks the
    premise."""
    rng = np.random.default_rng(seed)
    n, A = fuzz_graph(rng)
    active = random_scope(rng, n, active_kind)
    f = random_forest(rng, n, int(rng.integers(1, 4)))
    scope = np.ones(n, dtype=bool) if active is None else active
    f[scope] = rng.integers(0, n)
    scoped = np.flatnonzero(scope)
    if scoped.size:
        f[rng.choice(scoped, outliers)] = rng.integers(0, n, outliers)
    star = starcheck(f, active) if seed % 2 else random_bits(rng, n)
    assert outliers or one_parent(f, active)
    assert_cond_hook_exact(A, f, star, active)


def hook_free_candidate(rng: np.random.Generator, A: Matrix, active):
    """A parent array built per component of the scoped subgraph: one
    star under a random member, or a random forest of the component's
    vertices.  Vertices out of scope get a random forest."""
    n = A.nrows
    f = random_forest(rng, n, int(rng.integers(0, 3)))
    scope = np.ones(n, dtype=bool) if active is None else active
    sub = A.to_scipy()[scope][:, scope]
    _, comp = csgraph.connected_components(sub, directed=False)
    members = np.flatnonzero(scope)
    for c in range(comp.max() + 1 if comp.size else 0):
        vs = members[comp == c]
        if rng.random() < 0.5:
            f[vs] = rng.choice(vs)
        else:
            f[vs] = vs[random_forest(rng, vs.size, int(rng.integers(1, 3)))]
    return f


@pytest.mark.parametrize("active_kind", ["none", "all", "subset"])
def test_rule_b_on_random_hook_free_states(active_kind):
    """Seeded random states on which neither hook fires: the Lemma-1 kernel
    retires exactly the active stars.  Enough of the candidates must be
    hook-free for the check to mean something."""
    hook_free = 0
    for seed in FUZZ_SEEDS:
        rng = np.random.default_rng(seed)
        n, A = fuzz_graph(rng)
        active = random_scope(rng, n, active_kind)
        f = hook_free_candidate(rng, A, active)
        star = starcheck(f, active)
        trial = f.copy()
        if mxv_cond_hook(A, trial, star, active).count:
            continue
        if uncond_hook(A, trial, star, active).count:
            continue
        hook_free += 1
        assert_converged_exact(A, f, star, active)
    assert hook_free >= len(FUZZ_SEEDS) // 4


@pytest.mark.parametrize(
    "g",
    [gen.path_graph(200)] + [make_graph("single_path", seed) for seed in SEEDS],
    ids=["path"] + [f"single_path-{seed}" for seed in SEEDS],
)
def test_final_iteration_of_one_component_streams_no_matrix(monkeypatch, g):
    A = g.to_matrix()
    tier = _kernels.impl()
    minmax_calls = []
    real_minmax = tier.spmv_rows_minmax

    def counting_minmax(*args, **kwargs):
        minmax_calls.append(len(iterations))
        return real_minmax(*args, **kwargs)

    iterations = []
    real_cond_hook = LOOP.cond_hook

    def counting_cond_hook(*args, **kwargs):
        iterations.append(1)
        return real_cond_hook(*args, **kwargs)

    monkeypatch.setattr(tier, "spmv_rows_minmax", counting_minmax)
    monkeypatch.setattr(LOOP, "cond_hook", counting_cond_hook)
    tr = Tracer()
    with activate(tr):
        res = lacc(A)
    assert res.n_components == 1 and res.n_iterations == len(iterations) > 1
    last = [sp for sp, _ in tr.walk() if sp.name == "iteration"][-1]
    assert [sp.name for sp, _ in last.walk() if sp.cat == "graphblas"] == []
    assert res.n_iterations not in minmax_calls
