"""The benchmark's four workloads and the checks every rep must pass.

Each workload generates its graph from the seed with
:mod:`repro.graphs.generators`; the driver under test receives only that
edge list.  One rep is the user-visible path from the in-memory edge list
to the parent vector: the serial and dist reps build the adjacency matrix
themselves, the proc rep partitions and scatters the edges itself.

Nothing here imports :mod:`repro` at module level, so ``run.py`` can time
that import as the benchmark's set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: ranks of the real-process workload: the box has two cores
RANKS = 2
#: Edison nodes of the simulated-distributed workload (64 ranks, 8 x 8 grid)
NODES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "serial", "dist" or "proc": which driver one rep calls
    why: str
    make: Callable[[int, bool], object]  # (seed, smoke) -> EdgeList


def _rmat(seed: int, smoke: bool):
    from repro.graphs.generators import rmat

    return rmat(scale=10 if smoke else 18, edge_factor=20, seed=seed)


def _metagenome(seed: int, smoke: bool):
    import numpy as np

    from repro.graphs.generators import component_mixture

    sizes = np.random.default_rng(seed).integers(20, 200, 20 if smoke else 500)
    return component_mixture(sizes.tolist(), avg_degree=2.0, seed=seed + 1)


def _archaea(seed: int, smoke: bool):
    from repro.graphs.generators import clustered_graph

    return clustered_graph(100 if smoke else 3000, 5.0, 24.0,
                           giant_fraction=0.30, seed=seed)


def _eukarya(seed: int, smoke: bool):
    from repro.graphs.generators import clustered_graph

    return clustered_graph(200 if smoke else 8000, 4.0, 20.0,
                           giant_fraction=0.25, seed=seed)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "rmat-serial", "serial",
            "Large power-law CSR (262k vertices, 2.6M edges): adjacency build "
            "and SpMV carry real weight, the 10^7-edge regime at a size that repeats",
            _rmat,
        ),
        Workload(
            "metagenome-serial", "serial",
            "M3-like slow convergence (500 path-like components, avg degree 2): "
            "starcheck/assign on sparse frontiers dominate, build and SpMV do not",
            _metagenome,
        ),
        Workload(
            "protein-proc2", "proc",
            "archaea-like graph on 2 real worker processes: the only workload "
            "that crosses ProcComm and the shared-memory transport",
            _archaea,
        ),
        Workload(
            "protein-dist64", "dist",
            "eukarya-like graph on the simulated 64-rank Edison model: CombBLAS "
            "cost charging and the alpha-beta envelope, no transport",
            _eukarya,
        ),
    ]
}


def load_driver(kind: str) -> Callable:
    """Import :mod:`repro` and the driver *kind* uses, and return one rep:
    a callable from an edge list to the driver's result.  For ``proc`` the
    worker pool is started and pinged here, so it is part of set-up."""
    import repro  # noqa: F401

    if kind == "serial":
        from repro.core.lacc import lacc

        return lambda g: lacc(g.to_matrix())
    if kind == "dist":
        from repro.core.lacc_dist import lacc_dist
        from repro.mpisim import EDISON

        return lambda g: lacc_dist(g.to_matrix(), EDISON, nodes=NODES)
    from repro.core.lacc_spmd import lacc_spmd
    from repro.mpisim import backend
    from repro.parallel import get_pool

    get_pool(RANKS).ping()

    def proc_rep(g):
        with backend.use("proc"):
            return lacc_spmd(g, ranks=RANKS)

    return proc_rep


def sim_reference(g):
    """Parents of one sim-backend run: proc parents must equal them byte
    for byte."""
    from repro.core.lacc_spmd import lacc_spmd
    from repro.mpisim import backend

    with backend.use("sim"):
        return lacc_spmd(g, ranks=RANKS).parents


def same_partition(labels, truth) -> bool:
    """True when *labels* induce the partition of *truth*, the oracle's
    dense ``0..k-1`` labels.  Vectorised: the partitions agree exactly
    when the (label, truth) pairs, the labels and the truth classes are
    equally many."""
    import numpy as np

    labels = np.asarray(labels)
    if labels.shape != truth.shape:
        return False
    if labels.size == 0:
        return True
    if labels.min() < 0 or labels.max() >= labels.size:
        return False
    k = int(truth.max()) + 1
    pairs = np.unique(labels.astype(np.int64) * k + truth).size
    return pairs == k == np.unique(labels).size
