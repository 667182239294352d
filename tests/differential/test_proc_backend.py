"""Differential oracle on the real-process backend.

Two acceptance bars, on every (family, seed) corpus graph:

* **oracle agreement** — the SPMD drivers running with real worker
  processes (``REPRO_BACKEND=proc``) must induce the union–find oracle's
  vertex partition, exactly like the simulated runs;
* **backend equivalence** — the parent vector from a proc run must be
  *byte-identical* to the sim run of the same graph (the drivers are
  deterministic, so any divergence is a transport/collective bug), and
  both to serial ``lacc``'s, in as many iterations.

Each test runs under a SIGALRM watchdog so a deadlocked collective fails
the test instead of hanging the suite (the CI deadlock gate).
"""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.core.lacc import lacc
from repro.core.lacc_2d import lacc_2d
from repro.core.lacc_spmd import lacc_spmd
from repro.graphs.validate import same_partition
from repro.mpisim import backend

from .corpus import FAMILIES, SEEDS, make_graph, oracle_labels

CASES = [(fam, seed) for fam in FAMILIES for seed in SEEDS]

WATCHDOG_S = 120


@pytest.fixture(autouse=True)
def _watchdog():
    def _fire(signum, frame):
        raise TimeoutError(f"proc-backend run hung for {WATCHDOG_S}s")

    old = signal.signal(signal.SIGALRM, _fire)
    signal.alarm(WATCHDOG_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="module")
def graphs():
    out = {}
    for fam, seed in CASES:
        g = make_graph(fam, seed)
        out[(fam, seed)] = (g, oracle_labels(g))
    return out


PROC_RUNS = [
    ("lacc_spmd-r2", lambda g: lacc_spmd(g, ranks=2)),
    ("lacc_spmd-r4", lambda g: lacc_spmd(g, ranks=4)),
    ("lacc_2d-p4", lambda g: lacc_2d(g, ranks=4)),
]


@pytest.mark.parametrize("impl,run", PROC_RUNS, ids=[n for n, _ in PROC_RUNS])
@pytest.mark.parametrize("family,seed", CASES, ids=[f"{f}-s{s}" for f, s in CASES])
def test_proc_partition_matches_oracle(graphs, family, seed, impl, run):
    g, oracle = graphs[(family, seed)]
    with backend.use("proc"):
        res = run(g)
    assert res.parents.shape == (g.n,)
    assert same_partition(res.parents, oracle), (
        f"{impl} on proc backend disagrees with union-find on "
        f"{family} seed={seed}"
    )


@pytest.mark.parametrize("impl,run", PROC_RUNS, ids=[n for n, _ in PROC_RUNS])
@pytest.mark.parametrize("family,seed", CASES, ids=[f"{f}-s{s}" for f, s in CASES])
def test_sim_and_proc_parent_vectors_byte_identical(graphs, family, seed, impl, run):
    g, _ = graphs[(family, seed)]
    ser = lacc(g.to_matrix())
    sim_res = run(g)  # default backend: sim
    with backend.use("proc"):
        proc_res = run(g)
    assert sim_res.parents.tobytes() == ser.parents.tobytes(), (
        f"{impl}: sim and serial parent vectors diverge on {family} seed={seed}"
    )
    assert sim_res.n_iterations == ser.n_iterations
    assert sim_res.parents.dtype == proc_res.parents.dtype
    assert sim_res.parents.tobytes() == proc_res.parents.tobytes(), (
        f"{impl}: sim and proc parent vectors diverge on {family} seed={seed}"
    )
    assert sim_res.n_components == proc_res.n_components
    assert sim_res.n_iterations == proc_res.n_iterations
