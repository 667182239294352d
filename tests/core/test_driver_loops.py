"""Pins of the LACC driver loops.

The serial and simulated-distributed drivers run one program on the parent
array, and ``lacc_spmd``/``lacc_2d`` run one block-distributed program.
These tests hold each pair to that, and hold the simulated machine's α–β
charges and the 2D driver's traffic to fixed values, so a change to how the
loops are shared cannot move a number:

* (a) ``lacc_dist(..., permute=False)`` returns the serial driver's parents
  byte for byte, with the same per-iteration counts, with and without the
  §IV-B sparsity optimisations;
* (b) ``lacc_dist``'s cost totals, per-step model seconds and per-iteration
  words/messages equal recorded values exactly;
* (c) ``lacc_2d``'s (4 ranks) and ``lacc_spmd``'s (2 and 4 ranks) words
  sent, iteration count, per-iteration stats and flight ``iteration``
  events equal recorded values;
* (d) ``lacc_spmd`` (1, 2 and 4 ranks) and ``lacc_2d`` (1 and 4 ranks)
  return the serial driver's parents byte for byte, in as many
  iterations, with the serial step record in each: as many trees hooked
  conditionally and unconditionally, and as many star vertices.
"""

import numpy as np
import pytest

from repro.core.lacc import lacc
from repro.core.lacc_2d import lacc_2d
from repro.core.lacc_dist import lacc_dist
from repro.core.lacc_spmd import lacc_spmd
from repro.graphs import corpus
from repro.mpisim.machine import EDISON
from repro.obs.flight import FlightRecorder
from repro.obs.tracer import activate

GRAPHS = ("archaea", "queen_4147", "eukarya", "uk-2002", "M3", "twitter7")
COUNTS = (
    "active_vertices", "star_vertices", "cond_hooks", "uncond_hooks",
    "converged_vertices",
)


@pytest.fixture(scope="module")
def matrices():
    return {}


def _matrix(matrices, name):
    if name not in matrices:
        matrices[name] = corpus.load(name).to_matrix()
    return matrices[name]


@pytest.mark.parametrize("use_sparsity", [True, False])
@pytest.mark.parametrize("name", GRAPHS)
def test_dist_runs_the_serial_program(matrices, name, use_sparsity):
    A = _matrix(matrices, name)
    ser = lacc(A, use_sparsity=use_sparsity)
    dist = lacc_dist(A, EDISON, nodes=4, permute=False, use_sparsity=use_sparsity)
    assert dist.parents.dtype == ser.parents.dtype
    assert dist.parents.tobytes() == ser.parents.tobytes()
    assert (dist.n_iterations, dist.n_components) == (
        ser.n_iterations, ser.n_components,
    )
    for field in COUNTS:
        assert [getattr(it, field) for it in dist.stats.iterations] == [
            getattr(it, field) for it in ser.stats.iterations
        ], field


BLOCK_DRIVERS = {
    "spmd-r1": lambda g: lacc_spmd(g, ranks=1),
    "spmd-r2": lambda g: lacc_spmd(g, ranks=2),
    "spmd-r4": lambda g: lacc_spmd(g, ranks=4),
    "2d-r1": lambda g: lacc_2d(g, ranks=1),
    "2d-r4": lambda g: lacc_2d(g, ranks=4),
}


@pytest.mark.parametrize("driver", sorted(BLOCK_DRIVERS))
@pytest.mark.parametrize("name", GRAPHS)
def test_block_drivers_run_the_serial_program(matrices, name, driver):
    g = corpus.load(name)
    ser = lacc(_matrix(matrices, name))
    fr = FlightRecorder()
    with activate(flight=fr):
        res = BLOCK_DRIVERS[driver](g)
    assert np.array_equal(res.parents, ser.parents)
    assert res.n_iterations == ser.n_iterations
    want = [
        (it.cond_hooks, it.uncond_hooks, it.star_vertices)
        for it in ser.stats.iterations
    ]
    assert [
        (it.cond_hooks, it.uncond_hooks, it.star_vertices)
        for it in res.stats.iterations
    ] == want
    # the block loop keeps no Lemma-1 active set, so its events carry no
    # active count for the convergence-stall detector to misread
    events = [e.data for e in fr.events if e.kind == "iteration"]
    assert [
        (d["cond_hooks"], d["uncond_hooks"], d["star_vertices"]) for d in events
    ] == want
    assert not any("active_vertices" in d for d in events)


#: lacc_dist(A, EDISON, nodes=4) with the default permutation (seed 0)
DIST_COSTS = {
    "archaea": dict(
        seconds=0.0024368765213483167,
        words=539326.75,
        messages=232.0,
        steps={
            "cond_hook": 0.00030126078202247203,
            "starcheck": 0.0017324289528089904,
            "uncond_hook": 0.00017061087640449435,
            "shortcut": 0.0002325759101123595,
        },
        it_words=[261487, 124886, 61836, 52286, 38831],
        it_messages=[60, 56, 56, 36, 24],
    ),
    "M3": dict(
        seconds=0.034834078651685384,
        words=9760973.75,
        messages=415.0,
        steps={
            "cond_hook": 0.0017619609617977525,
            "starcheck": 0.02628987895730336,
            "uncond_hook": 0.0011238795325842692,
            "shortcut": 0.005658359200000001,
        },
        it_words=[1351174, 1679260, 1953650, 1885698, 1334766, 758312, 377010, 421104],
        it_messages=[40, 60, 60, 60, 60, 60, 51, 24],
    ),
}


@pytest.mark.parametrize("name", sorted(DIST_COSTS))
def test_dist_charges_are_pinned(matrices, name):
    want = DIST_COSTS[name]
    res = lacc_dist(_matrix(matrices, name), EDISON, nodes=4)
    assert res.cost.total_seconds == want["seconds"]
    assert res.cost.total_words == want["words"]
    assert res.cost.total_messages == want["messages"]
    assert res.stats.step_totals(model=True) == want["steps"]
    assert [it.words_communicated for it in res.stats.iterations] == want["it_words"]
    assert [it.messages_sent for it in res.stats.iterations] == want["it_messages"]


def _it(i, cond_hooks, uncond_hooks, star_vertices):
    return i, {
        "cond_hooks": cond_hooks, "uncond_hooks": uncond_hooks,
        "star_vertices": star_vertices,
    }


#: lacc_2d(g, ranks=4): (words_sent, flight ``iteration`` events)
GRID_2D = {
    "archaea": (933896, [
        _it(1, 22560, 168, 11531), _it(2, 210, 0, 16972),
        _it(3, 98, 0, 18232), _it(4, 8, 0, 18232), _it(5, 0, 0, 26045),
    ]),
    "queen_4147": (411651, [
        _it(1, 4095, 0, 0), _it(2, 0, 0, 0), _it(3, 0, 0, 0),
        _it(4, 0, 0, 0), _it(5, 0, 0, 0), _it(6, 0, 0, 4096),
    ]),
}


#: lacc_spmd(g, ranks): ({ranks: words_sent}, flight ``iteration`` events);
#: the events are ``lacc_2d``'s, as both run the serial program
SPMD_1D = {
    "archaea": ({2: 229233, 4: 942485}, GRID_2D["archaea"][1]),
    "queen_4147": ({2: 205221, 4: 421661}, GRID_2D["queen_4147"][1]),
}


def _assert_traffic(run, name, words, events, ranks=4):
    g = corpus.load(name)
    fr = FlightRecorder()
    with activate(flight=fr):
        res = run(g, ranks=ranks)
    assert res.words_sent == words
    assert res.n_iterations == len(events)
    assert [
        (e.iteration, e.data) for e in fr.events if e.kind == "iteration"
    ] == events
    # the flight events are written from the stats, which keep the whole
    # graph in scope: no Lemma-1 retirement in the block loop
    assert res.stats.n_vertices == g.n
    assert [
        (it.iteration, {k: getattr(it, k) for k in events[0][1]})
        for it in res.stats.iterations
    ] == events
    assert all(
        (it.active_vertices, it.converged_vertices) == (g.n, 0)
        for it in res.stats.iterations
    )
    assert np.array_equal(res.labels, lacc(g.to_matrix()).labels)


@pytest.mark.parametrize("name", sorted(GRID_2D))
def test_2d_traffic_is_pinned(name):
    _assert_traffic(lacc_2d, name, *GRID_2D[name])


@pytest.mark.parametrize("name", sorted(SPMD_1D))
def test_spmd_traffic_is_pinned(name):
    words, events = SPMD_1D[name]
    for ranks, w in words.items():
        _assert_traffic(lacc_spmd, name, w, events, ranks)
