"""Randomized graph corpus + implementation registry for the differential
correctness harness.

Five seeded graph families stress the structural regimes LACC's
convergence behaviour depends on (skew, tiny components, deep paths,
duplicate/self-loop-heavy inputs, bipartite-ish layered structure), and
:data:`IMPLEMENTATIONS` maps every connected-components implementation in
the repo to a uniform ``EdgeList -> labels`` callable.  The correctness
contract (FastSV's "convergence equivalence"): every implementation must
induce the **same vertex partition** as the union–find oracle on every
corpus graph — fault-free and under injected transient faults.

The CI ``differential`` job runs this harness on the fixed
``SEEDS × FAMILIES`` matrix.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.baselines import (
    awerbuch_shiloach,
    bfs_cc,
    fastsv,
    label_prop,
    random_mate,
    shiloach_vishkin,
    union_find,
)
from repro.baselines.parconnect import parconnect
from repro.core.lacc import lacc
from repro.core.lacc_2d import lacc_2d
from repro.core.lacc_dist import lacc_dist
from repro.core.lacc_lagraph import lacc_lagraph
from repro.core.lacc_spmd import lacc_spmd
from repro.graphs.generators import EdgeList, component_mixture, path_graph, relabel_random, rmat
from repro.mpisim.machine import LAPTOP

#: the fixed seed matrix the CI differential job runs (3 seeds × 5 families)
SEEDS = (0, 1, 2)


def _skewed(seed: int) -> EdgeList:
    """R-MAT power-law graph: heavy degree skew plus isolated vertices."""
    return rmat(scale=7, edge_factor=3, seed=seed, name="skewed")


def _bipartiteish(seed: int) -> EdgeList:
    """Random bipartite graph: every edge crosses the two vertex sets, so
    trees hook across sides and star formation alternates layers."""
    rng = np.random.default_rng(seed)
    left = int(rng.integers(20, 40))
    right = int(rng.integers(20, 40))
    n = left + right
    m = int(rng.integers(n // 2, 2 * n))
    u = rng.integers(0, left, m).astype(np.int64)
    v = (left + rng.integers(0, right, m)).astype(np.int64)
    return EdgeList(n, u, v, "bipartiteish")


def _many_tiny(seed: int) -> EdgeList:
    """Dozens of 1–3-vertex components plus two mid-size ones — drives
    Lemma-1 convergence tracking and singleton handling."""
    rng = np.random.default_rng(seed)
    sizes = list(rng.integers(1, 4, 60)) + [int(rng.integers(8, 20)), 13]
    return component_mixture(
        [int(s) for s in sizes], avg_degree=2.5, seed=seed + 1, name="many_tiny"
    )


def _single_path(seed: int) -> EdgeList:
    """One long randomly-relabelled path: worst-case tree depth for
    pointer jumping (maximum shortcut iterations)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 120))
    return relabel_random(path_graph(n, name="single_path"), seed=seed)


def _loopy_dupes(seed: int) -> EdgeList:
    """Self-loop- and duplicate-edge-heavy input: ~30% of records are
    self loops and every edge appears multiple times in both orders —
    the ingest paths must agree on deduplication semantics."""
    rng = np.random.default_rng(seed)
    n = 50
    m = 60
    u = rng.integers(0, n, m).astype(np.int64)
    v = np.where(rng.random(m) < 0.3, u, rng.integers(0, n, m)).astype(np.int64)
    dup = rng.integers(0, m, 2 * m)
    uu = np.r_[u, u[dup], v[dup]]
    vv = np.r_[v, v[dup], u[dup]]
    return EdgeList(n, uu, vv, "loopy_dupes")


#: family name → seeded generator
FAMILIES: Dict[str, Callable[[int], EdgeList]] = {
    "skewed": _skewed,
    "bipartiteish": _bipartiteish,
    "many_tiny": _many_tiny,
    "single_path": _single_path,
    "loopy_dupes": _loopy_dupes,
}


def make_graph(family: str, seed: int) -> EdgeList:
    return FAMILIES[family](seed)


def oracle_labels(g: EdgeList) -> np.ndarray:
    """The union–find oracle (min-vertex-id labels)."""
    return union_find.connected_components(g.n, g.u, g.v)


# ----------------------------------------------------------------------
# every CC implementation in the repo, as EdgeList -> labels
# ----------------------------------------------------------------------
IMPLEMENTATIONS: Dict[str, Callable[[EdgeList], np.ndarray]] = {
    "lacc": lambda g: lacc(g.to_matrix()).labels,
    "lacc_lagraph": lambda g: lacc_lagraph(g.to_matrix()),
    "lacc_2d": lambda g: lacc_2d(g, ranks=4).labels,
    "lacc_spmd": lambda g: lacc_spmd(g, ranks=3).labels,
    "lacc_dist": lambda g: lacc_dist(g.to_matrix(), LAPTOP, nodes=1).labels,
    "fastsv": lambda g: fastsv.connected_components(g.n, g.u, g.v),
    "shiloach_vishkin": lambda g: shiloach_vishkin.connected_components(g.n, g.u, g.v),
    "awerbuch_shiloach": lambda g: awerbuch_shiloach.connected_components(g.n, g.u, g.v),
    "random_mate": lambda g: random_mate.connected_components(g.n, g.u, g.v),
    "bfs": lambda g: bfs_cc.connected_components(g.n, g.u, g.v),
    "label_prop": lambda g: label_prop.connected_components(g.n, g.u, g.v),
    "parconnect": lambda g: parconnect(g.n, g.u, g.v, LAPTOP, nodes=1).labels,
}

#: the distributed implementations that accept a FaultPlan
FAULTABLE = ("lacc_spmd", "lacc_2d", "lacc_dist")
