"""Synthetic graph generators.

Every generator returns an :class:`EdgeList` — undirected edge endpoint
arrays plus the vertex count — which feeds both
:meth:`repro.graphblas.Matrix.adjacency` and the baselines directly.

The corpus module composes these into analogues of the paper's Table III
graphs.  What matters for LACC's behaviour (per the paper's §VI-E analysis)
is controllable here:

* **number of connected components** — drives vector sparsity (Lemma 1),
* **component-size distribution** — protein-similarity networks have many
  small clusters plus a giant one,
* **density m/n** — drives the computation/communication ratio,
* **diameter** — drives iteration count (trees deepen before shortcutting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "EdgeList",
    "erdos_renyi",
    "rmat",
    "RMAT_CHUNK_EDGES",
    "mesh3d",
    "path_graph",
    "star_graph",
    "cycle_graph",
    "binary_tree",
    "component_mixture",
    "clustered_graph",
    "grid2d",
    "watts_strogatz",
    "barbell",
    "caterpillar",
    "disjoint_union",
    "relabel_random",
]


@dataclass
class EdgeList:
    """An undirected graph as parallel endpoint arrays.

    Edges are not deduplicated or symmetrised here — the adjacency-matrix
    constructor handles both — but self-loops introduced by generators are
    already removed.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    name: str = "graph"

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.int64)
        self.v = np.asarray(self.v, dtype=np.int64)
        if self.u.shape != self.v.shape:
            raise ValueError("endpoint arrays must have equal length")
        if self.u.size and (
            min(self.u.min(), self.v.min()) < 0
            or max(self.u.max(), self.v.max()) >= self.n
        ):
            raise IndexError("edge endpoint out of range")

    @property
    def nedges(self) -> int:
        """Number of (undirected) edge records stored."""
        return int(self.u.size)

    def to_matrix(self):
        """Boolean symmetric adjacency matrix."""
        from repro.graphblas import Matrix

        return Matrix.adjacency(self.n, self.u, self.v)

    def to_networkx(self):  # pragma: no cover - convenience for notebooks
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(zip(self.u.tolist(), self.v.tolist()))
        return g


def _drop_loops(u: np.ndarray, v: np.ndarray):
    keep = u != v
    return u[keep], v[keep]


def erdos_renyi(n: int, avg_degree: float, seed: int = 0, name: str = "er") -> EdgeList:
    """G(n, m) random graph with ``m ≈ n·avg_degree/2`` undirected edges."""
    if n <= 0:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    m = int(n * avg_degree / 2)
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    u, v = _drop_loops(u, v)
    return EdgeList(n, u, v, name)


# Above this many edges, rmat() switches from the single-pass formulation
# to chunked generation so peak memory stays bounded by the chunk, not m.
# Every pre-existing corpus graph sits below it, so their RNG streams (and
# therefore every seeded test/bench graph) are unchanged.
RMAT_CHUNK_EDGES = 1 << 22


def _rmat_quadrants(rng, scale: int, a: float, b: float, c: float, m: int):
    """Draw *m* R-MAT endpoint pairs bit by bit with the given RNG."""
    u = np.zeros(m, dtype=np.int64)
    v = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        # quadrant probabilities: (a) TL, (b) TR, (c) BL, (d) BR
        right = (r >= a) & (r < a + b) | (r >= a + b + c)
        down = r >= a + b
        u |= down.astype(np.int64) << bit
        v |= right.astype(np.int64) << bit
    return u, v


def rmat(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    name: str = "rmat",
    chunk_edges: int = RMAT_CHUNK_EDGES,
) -> EdgeList:
    """R-MAT / Kronecker power-law graph with ``2**scale`` vertices.

    The default (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) parameters are the
    Graph500 values, which produce the skewed degree distributions of web
    crawls and social networks (uk-2002, twitter7, sk-2005 analogues).

    Beyond *chunk_edges* edges, generation proceeds chunk by chunk with
    independently seeded child RNGs (``SeedSequence(seed).spawn``) instead
    of materialising the per-bit scratch arrays for the full edge list at
    once: a 10⁷-edge graph otherwise needs ~``8·m`` bytes *per scale
    bit* of transient memory, which is what used to blow past CI limits.
    Small graphs keep the original single-pass RNG stream byte for byte.
    """
    if not 0 < a + b + c < 1:
        raise ValueError("require 0 < a+b+c < 1 (d is the remainder)")
    if chunk_edges <= 0:
        raise ValueError("chunk_edges must be positive")
    n = 1 << scale
    m = n * edge_factor // 2
    if m <= chunk_edges:
        u, v = _rmat_quadrants(np.random.default_rng(seed), scale, a, b, c, m)
    else:
        u = np.empty(m, dtype=np.int64)
        v = np.empty(m, dtype=np.int64)
        starts = range(0, m, chunk_edges)
        children = np.random.SeedSequence(seed).spawn(len(starts))
        for child, lo in zip(children, starts):
            hi = min(lo + chunk_edges, m)
            cu, cv = _rmat_quadrants(
                np.random.default_rng(child), scale, a, b, c, hi - lo
            )
            u[lo:hi] = cu
            v[lo:hi] = cv
    u, v = _drop_loops(u, v)
    return EdgeList(n, u, v, name)


def mesh3d(nx_: int, ny: int, nz: int, name: str = "mesh3d") -> EdgeList:
    """3D structured grid (6-point stencil) — queen_4147-like structural
    problem: single component, high average degree, huge diameter."""
    idx = np.arange(nx_ * ny * nz, dtype=np.int64).reshape(nx_, ny, nz)
    us, vs = [], []
    us.append(idx[:-1, :, :].ravel())
    vs.append(idx[1:, :, :].ravel())
    us.append(idx[:, :-1, :].ravel())
    vs.append(idx[:, 1:, :].ravel())
    us.append(idx[:, :, :-1].ravel())
    vs.append(idx[:, :, 1:].ravel())
    return EdgeList(idx.size, np.concatenate(us), np.concatenate(vs), name)


def path_graph(n: int, name: str = "path") -> EdgeList:
    """Simple path 0—1—···—(n-1): worst-case diameter for pointer jumping."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return EdgeList(n, np.arange(n - 1), np.arange(1, n), name)


def star_graph(n: int, center: int = 0, name: str = "star") -> EdgeList:
    """One hub connected to all other vertices (already a star tree)."""
    others = np.setdiff1d(np.arange(n, dtype=np.int64), [center])
    return EdgeList(n, np.full(others.size, center, dtype=np.int64), others, name)


def cycle_graph(n: int, name: str = "cycle") -> EdgeList:
    """n-cycle: single component, every vertex degree 2."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    u = np.arange(n, dtype=np.int64)
    return EdgeList(n, u, (u + 1) % n, name)


def binary_tree(depth: int, name: str = "btree") -> EdgeList:
    """Complete binary tree of the given depth (root level 0)."""
    n = (1 << (depth + 1)) - 1
    child = np.arange(1, n, dtype=np.int64)
    parent = (child - 1) // 2
    return EdgeList(n, parent, child, name)


def component_mixture(
    sizes: Sequence[int],
    avg_degree: float = 4.0,
    seed: int = 0,
    name: str = "mixture",
) -> EdgeList:
    """Disjoint union of Erdős–Rényi components with the given sizes.

    Each component is made connected by threading a random spanning path
    through it, so ``len(sizes)`` is exactly the component count — the knob
    Lemma 1's convergence tracking responds to.
    """
    rng = np.random.default_rng(seed)
    us, vs = [], []
    offset = 0
    for k, size in enumerate(sizes):
        if size <= 0:
            raise ValueError("component sizes must be positive")
        if size > 1:
            perm = rng.permutation(size)
            us.append(offset + perm[:-1])
            vs.append(offset + perm[1:])
            extra = int(size * max(avg_degree - 2.0, 0.0) / 2)
            if extra:
                us.append(offset + rng.integers(0, size, extra))
                vs.append(offset + rng.integers(0, size, extra))
        offset += size
    if us:
        u = np.concatenate(us)
        v = np.concatenate(vs)
        u, v = _drop_loops(u, v)
    else:
        u = v = np.empty(0, dtype=np.int64)
    return EdgeList(offset, u, v, name)


def clustered_graph(
    n_clusters: int,
    cluster_size_mean: float,
    intra_degree: float = 8.0,
    giant_fraction: float = 0.0,
    seed: int = 0,
    name: str = "clustered",
) -> EdgeList:
    """Protein-similarity-network analogue (archaea / eukarya / isolates).

    Many geometric-distributed small clusters; optionally a giant component
    holding *giant_fraction* of all vertices.  Matches the paper's
    description of HipMCL inputs: huge numbers of components with skewed
    sizes and locally dense similarity neighbourhoods.
    """
    rng = np.random.default_rng(seed)
    sizes = 1 + rng.geometric(1.0 / max(cluster_size_mean, 1.0), n_clusters)
    if giant_fraction > 0:
        total = int(sizes.sum())
        giant = int(giant_fraction * total / max(1 - giant_fraction, 1e-9))
        sizes = np.r_[sizes, giant]
    return component_mixture(sizes.tolist(), intra_degree, seed=seed + 1, name=name)


def grid2d(nx_: int, ny: int, name: str = "grid2d") -> EdgeList:
    """2D structured grid (4-point stencil): single component, diameter
    ``nx + ny`` — a midpoint between the path and the 3D mesh."""
    idx = np.arange(nx_ * ny, dtype=np.int64).reshape(nx_, ny)
    us = [idx[:-1, :].ravel(), idx[:, :-1].ravel()]
    vs = [idx[1:, :].ravel(), idx[:, 1:].ravel()]
    return EdgeList(idx.size, np.concatenate(us), np.concatenate(vs), name)


def watts_strogatz(
    n: int, k: int = 4, beta: float = 0.1, seed: int = 0, name: str = "ws"
) -> EdgeList:
    """Watts–Strogatz small world: ring lattice of even degree *k* with
    each edge rewired with probability *beta*.  Single component (the
    ring backbone is kept), low diameter — a social-network-like shape
    without R-MAT's isolated vertices."""
    if k % 2 or k < 2:
        raise ValueError("k must be even and >= 2")
    if not 0 <= beta <= 1:
        raise ValueError("beta must be in [0, 1]")
    rng = np.random.default_rng(seed)
    base = np.arange(n, dtype=np.int64)
    us, vs = [], []
    for d in range(1, k // 2 + 1):
        u = base
        v = (base + d) % n
        rewire = rng.random(n) < beta
        v = np.where(rewire & (d > 1), rng.integers(0, n, n), v)
        us.append(u)
        vs.append(v)
    u = np.concatenate(us)
    v = np.concatenate(vs)
    keep = u != v
    return EdgeList(n, u[keep], v[keep], name)


def barbell(k: int, bridge: int = 1, name: str = "barbell") -> EdgeList:
    """Two k-cliques joined by a path of *bridge* vertices: dense ends,
    a thin high-betweenness middle — stresses hooking across a bottleneck."""
    if k < 2:
        raise ValueError("cliques need k >= 2")
    n = 2 * k + bridge
    us, vs = [], []
    for off in (0, k + bridge):
        ii, jj = np.triu_indices(k, 1)
        us.append(ii + off)
        vs.append(jj + off)
    chain = np.arange(k - 1, k + bridge + 1, dtype=np.int64)
    us.append(chain[:-1])
    vs.append(chain[1:])
    return EdgeList(n, np.concatenate(us), np.concatenate(vs), name)


def caterpillar(spine: int, legs: int, name: str = "caterpillar") -> EdgeList:
    """A path of *spine* vertices with *legs* leaves per spine vertex —
    a tree whose starcheck behaviour mixes deep and wide structure."""
    if spine < 1 or legs < 0:
        raise ValueError("need spine >= 1 and legs >= 0")
    n = spine * (1 + legs)
    us = [np.arange(spine - 1, dtype=np.int64)]
    vs = [np.arange(1, spine, dtype=np.int64)]
    if legs:
        leaf = np.arange(spine, n, dtype=np.int64)
        us.append((leaf - spine) // legs)
        vs.append(leaf)
    return EdgeList(n, np.concatenate(us), np.concatenate(vs), name)


def disjoint_union(parts: Sequence[EdgeList], name: str = "union") -> EdgeList:
    """Concatenate graphs with shifted vertex ids."""
    us, vs = [], []
    offset = 0
    for g in parts:
        us.append(g.u + offset)
        vs.append(g.v + offset)
        offset += g.n
    u = np.concatenate(us) if us else np.empty(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.empty(0, dtype=np.int64)
    return EdgeList(offset, u, v, name)


def relabel_random(g: EdgeList, seed: int = 0) -> EdgeList:
    """Apply a random vertex permutation (used by invariance tests and by
    the CombBLAS-style load-balancing permutation)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.n)
    return EdgeList(g.n, perm[g.u], perm[g.v], f"{g.name}-relabel")
