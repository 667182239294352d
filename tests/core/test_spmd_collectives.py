"""The fused-collective SPMD drivers against serial LACC.

``lacc_spmd`` and ``lacc_2d`` request each index set once and answer it
with fused replies, the shortcut reuses the last starcheck's
grandparents, and their hooks write with serial's rule
(:func:`repro.core.hooking.assign_min`).  None of that may change what
they compute: on every differential corpus graph, fault-free and under
the transient ``flaky`` and ``stragglers`` presets, the parents must be
byte-identical to serial ``lacc``'s and the iteration counts equal.
Serial ``lacc`` is itself pinned to ``lacc_lagraph``, the literal
GraphBLAS transcription of Algorithms 3–6.  ``lacc_spmd`` must also make
exactly 16 ``alltoallv`` calls per iteration plus one per run.

The tests keep their ``gather_oracle`` names from the gather-based
drivers these ones were first checked against.
"""

from __future__ import annotations

import functools

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
    calls = len(tr.find("alltoallv", "simcomm"))
    assert calls == 16 * res.n_iterations + 1


@pytest.mark.parametrize("faults", PRESETS, ids=lambda p: p or "clean")
@pytest.mark.parametrize("family,seed", CORPUS, ids=CORPUS_IDS)
def test_2d_matches_gather_oracle(family, seed, faults):
    g = make_graph(family, seed)
    plan = _plan(faults)
    with backend.use("sim"):
        res = lacc_2d(g, ranks=4, faults=plan)
    _assert_serial(res, family, seed, plan)
