"""repro — a reproduction of *LACC: A Linear-Algebraic Algorithm for Finding
Connected Components in Distributed Memory* (Azad & Buluç, IPDPS 2019).

Layout
------
``repro.graphblas``
    From-scratch GraphBLAS-style sparse linear algebra (vectors, matrices,
    semirings, masked operations) — the substrate LACC is expressed in.
``repro.core``
    LACC itself: the Awerbuch–Shiloach algorithm in GraphBLAS primitives,
    with the paper's sparsity optimisations (Lemmas 1–2) and the
    distributed variant over the simulated runtime.
``repro.mpisim`` / ``repro.combblas``
    A simulated distributed-memory machine (2D process grid, collectives,
    α–β cost model with Edison / Cori-KNL presets) and CombBLAS-style 2D
    block-distributed matrices/vectors on top of it.
``repro.baselines``
    Union–find, Shiloach–Vishkin, BFS, label propagation, FastSV and the
    distributed ParConnect competitor.
``repro.graphs``
    Graph generators (including synthetic analogues of the paper's Table
    III corpus), Matrix Market I/O, and ground-truth validation.
``repro.mcl``
    HipMCL-lite: Markov clustering whose component-extraction step calls
    LACC (§VI-F of the paper).

Top-level convenience::

    import repro
    labels = repro.connected_components(edges_u, edges_v, n)
"""

from __future__ import annotations

import importlib

import numpy as np

__version__ = "1.0.0"

__all__ = ["BASELINES", "connected_components", "__version__"]

#: the baseline methods of :func:`connected_components` (beside
#: ``"lacc"``), each the module in :mod:`repro.baselines` that runs it
BASELINES = {
    "union-find": "union_find",
    "sv": "shiloach_vishkin",
    "bfs": "bfs_cc",
    "label-prop": "label_prop",
    "fastsv": "fastsv",
}


def connected_components(u, v, n: int, method: str = "lacc") -> np.ndarray:
    """Label the connected components of an undirected graph.

    Parameters
    ----------
    u, v:
        Edge endpoint arrays (the graph is treated as undirected; self
        loops are ignored).
    n:
        Number of vertices.
    method:
        ``"lacc"`` (the paper's algorithm), or a baseline:
        ``"union-find"``, ``"sv"``, ``"bfs"``, ``"label-prop"``,
        ``"fastsv"``.

    Returns
    -------
    numpy.ndarray
        Length-*n* int64 array where ``labels[i]`` is the smallest vertex id
        in *i*'s component (for LACC and union–find; all methods return
        *some* canonical representative per component).
    """
    # import only the chosen method, so default LACC loads no SciPy
    # (the baselines package does)
    if method == "lacc":
        from .core.lacc import lacc
        from .graphblas import Matrix

        labels = lacc(Matrix.adjacency(n, u, v)).labels
    elif method in BASELINES:
        module = importlib.import_module(f".baselines.{BASELINES[method]}", __name__)
        labels = module.connected_components(n, u, v)
    else:
        raise ValueError(
            f"unknown method {method!r}; choose from {sorted([*BASELINES, 'lacc'])}"
        )
    return np.asarray(labels, dtype=np.int64)
