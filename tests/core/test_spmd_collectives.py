"""The fused-collective SPMD drivers against serial LACC.

``lacc_spmd``'s hooks read one coded word per endpoint and ``lacc_2d``'s
route (index, value) pairs in one array, the shortcut reuses the last
starcheck's grandparents, ``lacc_spmd``'s hooks drop every edge whose
endpoints share a parent, and the hooks of both write with serial's rule
(:func:`repro.core.hooking.assign_min`).
None of that may change what they compute: on every differential
corpus graph, fault-free and under the transient ``flaky`` and
``stragglers`` presets, the parents must be byte-identical to serial
``lacc``'s and the iteration counts equal.
Serial ``lacc`` is itself pinned to ``lacc_lagraph``, the literal
GraphBLAS transcription of Algorithms 3–6.  Each iteration must make its
collectives in the steps the rank program names: ``lacc_spmd``'s 17
``alltoallv``\\ s and ``lacc_2d``'s 18, one ``allreduce`` each, and none
outside a step.  ``lacc_spmd``'s hook replies carry one word per
requested endpoint.  The premise of its edge pruning is
checked on serial ``lacc``'s own iterations.

The tests keep their ``gather_oracle`` names from the gather-based
drivers these ones were first checked against.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.lacc import lacc
from repro.core.lacc_2d import lacc_2d
from repro.core.lacc_spmd import lacc_spmd
from repro.faults import preset
from repro.mpisim import backend
from repro.obs import Tracer, activate

from ..differential.corpus import FAMILIES, SEEDS, make_graph

CORPUS = [(fam, seed) for fam in FAMILIES for seed in SEEDS]
CORPUS_IDS = [f"{f}-s{s}" for f, s in CORPUS]
PRESETS = [None, "flaky", "stragglers"]


@functools.lru_cache(maxsize=None)
def _serial(family, seed):
    return lacc(make_graph(family, seed).to_matrix())


def _plan(name):
    return None if name is None else preset(name, seed=7)


#: each iteration's collectives, by (step, collective)
SPMD_STEPS = {("starcheck", "alltoallv"): 12, ("cond_hook", "alltoallv"): 3,
              ("uncond_hook", "alltoallv"): 2, ("convergence", "allreduce"): 1}
GRID_STEPS = {**SPMD_STEPS, ("uncond_hook", "alltoallv"): 3}


def _assert_steps(tr, res, want):
    """Every iteration makes the collectives *want* in its step spans,
    and no collective runs outside a step."""
    its = tr.find("iteration", "iteration")
    assert len(its) == res.n_iterations
    inside = 0
    for it in its:
        got = {}
        for step in it.children:
            for sp in step.find(cat="simcomm"):
                got[step.name, sp.name] = got.get((step.name, sp.name), 0) + 1
        assert got == want
        inside += sum(got.values())
    assert inside == len(tr.find(cat="simcomm"))


def _assert_serial(res, family, seed, plan):
    ser = _serial(family, seed)
    assert res.parents.dtype == ser.parents.dtype
    assert res.parents.tobytes() == ser.parents.tobytes()
    assert res.n_iterations == ser.n_iterations
    assert plan is None or plan.n_injected > 0  # the faults really fired


@pytest.mark.parametrize("faults", PRESETS, ids=lambda p: p or "clean")
@pytest.mark.parametrize("ranks", [1, 2, 3, 4])
@pytest.mark.parametrize("family,seed", CORPUS, ids=CORPUS_IDS)
def test_spmd_matches_gather_oracle(family, seed, ranks, faults):
    g = make_graph(family, seed)
    tr = Tracer()
    plan = _plan(faults)
    with backend.use("sim"), activate(tr):
        res = lacc_spmd(g, ranks=ranks, faults=plan)
    _assert_serial(res, family, seed, plan)
    _assert_steps(tr, res, SPMD_STEPS)


@pytest.mark.parametrize("ranks", [2, 3])
@pytest.mark.parametrize("family,seed", CORPUS, ids=CORPUS_IDS)
def test_spmd_hook_replies_one_word_per_endpoint(family, seed, ranks):
    """Each hook's reply carries one word per endpoint the conditional
    hook requested (``f`` for a star, ``~f`` for a nonstar): the cond
    hook's reply is as long as its request, and the uncond hook answers
    the same request again."""
    tr = Tracer()
    with backend.use("sim"), activate(tr):
        lacc_spmd(make_graph(family, seed), ranks=ranks)
    for it in tr.find("iteration", "iteration"):
        words = {
            step.name: [
                sp.counters.get("words", 0.0) for sp in step.find("alltoallv", "simcomm")
            ]
            for step in it.children
            if step.name in ("cond_hook", "uncond_hook")
        }
        request, reply, _ = words["cond_hook"]
        assert reply == request
        assert words["uncond_hook"][0] == request


@pytest.mark.parametrize("faults", PRESETS, ids=lambda p: p or "clean")
@pytest.mark.parametrize("family,seed", CORPUS, ids=CORPUS_IDS)
def test_2d_matches_gather_oracle(family, seed, faults):
    g = make_graph(family, seed)
    tr = Tracer()
    plan = _plan(faults)
    with backend.use("sim"), activate(tr):
        res = lacc_2d(g, ranks=4, faults=plan)
    _assert_serial(res, family, seed, plan)
    _assert_steps(tr, res, GRID_STEPS)


def _roots(f):
    """Each vertex's root: ``f`` pointer-chased to its fixed point."""
    while True:
        ff = f[f]
        if np.array_equal(ff, f):
            return f
        f = ff


@pytest.mark.parametrize("family,seed", CORPUS, ids=CORPUS_IDS)
def test_settled_edges_never_hook_again(family, seed):
    """Once an edge's endpoints share a parent, they share a root in every
    later iteration (trees only merge), and whenever ``star[u]`` holds
    they share a parent again, so no hook can fire on the edge: the
    premise on which ``lacc_spmd`` drops such edges.  ``f[u] == f[v]``
    itself need not persist, as a root can hook away from its child."""
    g = make_graph(family, seed)
    snaps = []
    res = lacc(g.to_matrix(), on_iteration=snaps.append)
    u, v = np.r_[g.u, g.v], np.r_[g.v, g.u]
    settled = np.zeros(u.size, dtype=bool)
    for f, star in [(s.parents, s.star) for s in snaps] + [(res.parents, None)]:
        su, sv = u[settled], v[settled]
        roots = _roots(f)
        assert np.array_equal(roots[su], roots[sv])
        if star is not None:
            assert not np.any(star[su] & (f[su] != f[sv]))
        settled |= f[u] == f[v]
