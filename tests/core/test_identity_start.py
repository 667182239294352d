"""The two exact skips of the serial loop's start and hook phases.

* **Identity start** (``core.lacc._run`` and ``core.hooking.cond_hook``):
  a run from the identity forest with every vertex active starts with
  every vertex a singleton star, so the opening starcheck is skipped, and
  iteration 1's conditional hook reads each scoped row's first stored
  column instead of running the masked mxv.
* **Write-free hook phase** (``core.lacc._run``): when a hook wrote no
  root, ``f`` is unchanged and the starcheck after it is skipped.

On every differential-corpus family and seed and on the ten
``repro.graphs.corpus`` graphs, ``lacc``, ``lacc(use_sparsity=False)``
and ``lacc_dist(EDISON, nodes=4)`` must reproduce the values recorded in
``identity_start_expected.json`` from the loop that ran every starcheck
and every mxv: parents, iteration counts, per-iteration hook, star and
Lemma-1 counts, and ``lacc_dist``'s α–β totals and routing reports.  The
star bitmap each hook and the Lemma-1 check receive must equal a fresh
starcheck, and the first-column hook must equal the mxv path on seeded
random graphs.  Runs that do not start fresh (a retired non-isolated
vertex, a resume from a snapshot) must take the mxv path.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os

import numpy as np
import pytest
from scipy.sparse import csgraph

from repro.core.hooking import cond_hook
from repro.core.lacc import lacc
from repro.core.lacc_dist import lacc_dist
from repro.core.starcheck import starcheck
from repro.graphblas import Matrix
from repro.graphs import corpus
from repro.graphs import generators as gen
from repro.mpisim.machine import EDISON

from ..differential.corpus import FAMILIES, SEEDS, make_graph
from .test_hook_oracle import assert_same_report

LOOP = importlib.import_module("repro.core.lacc")

with open(os.path.join(os.path.dirname(__file__), "identity_start_expected.json")) as fh:
    EXPECTED = json.load(fh)

RUNS = {
    "lacc": lambda A, **kw: lacc(A, **kw),
    "lacc_dense": lambda A, **kw: lacc(A, use_sparsity=False, **kw),
    "lacc_dist": lambda A, **kw: lacc_dist(A, EDISON, nodes=4, **kw),
}
GRAPHS = [f"{fam}-{seed}" for fam in sorted(FAMILIES) for seed in SEEDS] + corpus.names()


@functools.lru_cache(maxsize=None)
def load(name: str):
    fam, _, seed = name.rpartition("-")
    if fam in FAMILIES and seed.isdigit():
        return make_graph(fam, int(seed))
    return corpus.load(name)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(res) -> dict:
    """The values of one run that the two skips must leave unchanged, as
    ``identity_start_expected.json`` holds them."""
    out = {
        "parents": _sha(res.parents.tobytes()),
        "n_iterations": res.n_iterations,
        "iterations": [
            [it.cond_hooks, it.uncond_hooks, it.star_vertices,
             it.active_vertices, it.converged_vertices]
            for it in res.stats.iterations
        ],
    }
    if res.cost is not None:
        out["cost"] = [res.cost.total_seconds, res.cost.total_words,
                       res.cost.total_messages]
        out["routing"] = _sha(repr([
            (it, step, rep.received_per_rank.tolist(), rep.broadcast_ranks.tolist(),
             rep.active_ranks, rep.words_critical, rep.seconds)
            for it, step, rep in res.routing
        ]).encode())
    return json.loads(json.dumps(out))


@pytest.fixture
def watched(monkeypatch):
    """Wrap the loop's hooks and Lemma-1 check: every star bitmap they
    receive must equal a starcheck of the parent array they receive, and
    ``fresh`` records the promise each conditional hook was given."""
    seen = {"fresh": []}

    def check_star(f, star, active):
        assert star.tobytes() == starcheck(f, active).tobytes()

    def wrap(name, fn):
        def step(A, f, star, active=None, **kw):
            check_star(f, star, active)
            if name == "cond_hook":
                seen["fresh"].append(kw.get("fresh", False))
            return fn(A, f, star, active, **kw)

        monkeypatch.setattr(LOOP, name, step)

    for name in ("cond_hook", "uncond_hook", "converged_star_vertices"):
        wrap(name, getattr(LOOP, name))
    return seen


@pytest.mark.parametrize("driver", sorted(RUNS))
@pytest.mark.parametrize("name", GRAPHS)
def test_runs_equal_the_loop_without_the_skips(watched, name, driver):
    res = RUNS[driver](load(name).to_matrix())
    assert record(res) == EXPECTED[name][driver]
    # every corpus graph has an edge, so the run starts fresh once
    assert watched["fresh"] == [True] + [False] * (res.n_iterations - 1)


def test_starcheck_calls_on_the_rmat_serial_graph(monkeypatch):
    """``rmat(18, 20, seed=1)`` runs 4 iterations.  The loop without the
    skips ran 12 starchecks: the opening one, two per iteration and one
    after each of the first three shortcuts.  Iteration 1 writes in both
    hooks, iteration 2 only in the conditional one, and 3 and 4 in
    neither."""
    A = gen.rmat(scale=18, edge_factor=20, seed=1).to_matrix()
    calls = []

    def counting(f, active=None):
        calls.append(1)
        return starcheck(f, active)

    monkeypatch.setattr(LOOP, "starcheck", counting)
    res = lacc(A)
    assert res.n_iterations == 4
    assert len(calls) == 6


# ----------------------------------------------------------------------
# the first-column hook against the mxv path
# ----------------------------------------------------------------------
def closed_scope(rng: np.random.Generator, A: Matrix, kind: str):
    """A neighbour-closed scope: ``None``, the non-isolated vertices, or
    a random union of components plus random isolated vertices."""
    if kind == "none":
        return None
    nonisolated = A.row_degrees() != 0
    if kind == "nonisolated":
        return nonisolated
    k, comp = csgraph.connected_components(A.to_scipy(), directed=False)
    return (rng.random(k) < 0.5)[comp]


@pytest.mark.parametrize("kind", ["none", "nonisolated", "components"])
@pytest.mark.parametrize("seed", range(30))
def test_first_column_hook_equals_the_mxv_hook(seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    m = int(rng.integers(0, 3 * n + 1))
    A = Matrix.adjacency(n, rng.integers(0, n, m), rng.integers(0, n, m))
    active = closed_scope(rng, A, kind)
    star = np.ones(n, dtype=bool)
    got, want = np.arange(n), np.arange(n)
    assert_same_report(cond_hook(A, got, star, active, fresh=True),
                       cond_hook(A, want, star, active))
    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# runs that must not take the fast path, or must not be changed by it
# ----------------------------------------------------------------------
def forced_mxv(monkeypatch, driver, A, **kw):
    """*driver* on *A* with every conditional hook on the mxv path."""
    real = LOOP.cond_hook
    monkeypatch.setattr(LOOP, "cond_hook",
                        lambda A, f, star, active=None, fresh=False:
                        real(A, f, star, active))
    return RUNS[driver](A, **kw)


@pytest.mark.parametrize("driver", ["lacc", "lacc_dist"])
def test_a_retired_neighbour_takes_the_mxv_path(watched, monkeypatch, driver):
    """Identity parents, but vertex 0 of a path retired: row 1's first
    column is 0, which the scoped mxv does not see, so the fast path
    would hook 1 onto 0 and the mxv path does not."""
    A = gen.path_graph(30).to_matrix()
    active = np.ones(30, dtype=bool)
    active[0] = False
    f = np.arange(30)
    fast, mxv = f.copy(), f.copy()
    ones = np.ones(30, dtype=bool)
    assert cond_hook(A, fast, ones, active, fresh=True).count != \
        cond_hook(A, mxv, ones, active).count
    kw = dict(initial_parents=np.arange(30), initial_active=active)
    res = RUNS[driver](A, **kw)
    assert not any(watched["fresh"])
    assert record(res) == record(forced_mxv(monkeypatch, driver, A, **kw))


@pytest.mark.parametrize("driver", ["lacc", "lacc_dist"])
@pytest.mark.parametrize("name", ["archaea", "M3", "single_path-2"])
def test_a_resume_from_a_snapshot_takes_the_mxv_path(watched, name, driver):
    A = load(name).to_matrix()
    snaps = []
    full = RUNS[driver](A, on_iteration=snaps.append)
    assert snaps
    snap = snaps[0]
    watched["fresh"].clear()
    res = RUNS[driver](A, initial_parents=snap.parents, initial_active=snap.active,
                       start_iteration=snap.iteration)
    assert not any(watched["fresh"])
    assert res.parents.tobytes() == full.parents.tobytes()
    assert res.n_iterations == full.n_iterations
    assert [it.cond_hooks for it in res.stats.iterations] == \
        [it.cond_hooks for it in full.stats.iterations[snap.iteration:]]


@pytest.mark.parametrize("driver", sorted(RUNS))
def test_an_edgeless_graph_runs_no_step(watched, driver):
    res = RUNS[driver](Matrix.adjacency(7, [], []))
    assert watched["fresh"] == []
    assert res.n_iterations == 0
    assert res.parents.tobytes() == np.arange(7).tobytes()


@pytest.mark.parametrize("driver", ["lacc_dense", "lacc_dist"])
def test_isolated_vertices_without_sparsity(watched, monkeypatch, driver):
    """With sparsity off nothing is scoped out, so isolated rows are in
    scope; they have no first column and must not hook."""
    u = [1, 2, 5, 6, 6]
    v = [2, 3, 6, 8, 9]
    A = Matrix.adjacency(12, u, v)
    kw = {} if driver == "lacc_dense" else {"use_sparsity": False}
    res = RUNS[driver](A, **kw)
    assert watched["fresh"][0] is True
    assert record(res) == record(forced_mxv(monkeypatch, driver, A, **kw))
    assert res.n_components == 12 - len(u)
