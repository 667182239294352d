"""Spanning-forest extraction via LACC-style hooking.

Connected-component labels certify *that* vertices are connected; many
consumers (metagenome assembly scaffolding, cycle detection, sparsifiers,
the MSF algorithms of the paper's §II-C) also want a *witness*: a spanning
tree per component.  The AS hooking structure yields one naturally — every
hook was justified by a concrete graph edge — if the semiring carries that
edge along.

The trick (standard in LAGraph's MSF): run the hooking ``mxv`` over pairs
``(f[v], v)`` encoded as ``f[v]·n + v`` in a single int64.  The *(Select2nd,
min)* semiring then still minimises by parent id (the high digits) while the
low digits remember which neighbour — and hence which edge {u, v} — won.
Each accepted hook contributes one forest edge; shortcutting contributes
none.  A component of *k* vertices accumulates exactly *k − 1* edges.

Encoding requires ``n² < 2⁶³``, i.e. ``n ≤ ~3·10⁹`` — beyond any graph this
package targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.graphblas import Matrix
from repro.graphblas.sorting import count_distinct

from .convergence import ActiveSet, converged_star_vertices, iteration_bound
from .hooking import _min_neighbour_parent
from .shortcut import shortcut
from .starcheck import starcheck

__all__ = ["spanning_forest", "SpanningForest"]


@dataclass
class SpanningForest:
    """A spanning forest: one tree per connected component."""

    n: int
    edges_u: np.ndarray  # forest edge endpoints (graph edges, undirected)
    edges_v: np.ndarray
    parents: np.ndarray  # component labels (roots), as from lacc()

    @property
    def n_edges(self) -> int:
        return int(self.edges_u.size)

    @property
    def n_components(self) -> int:
        return count_distinct(self.parents)

    def is_spanning(self) -> bool:
        """Exactly n - #components edges and same component structure."""
        if self.n_edges != self.n - self.n_components:
            return False
        from repro.baselines.union_find import DisjointSet

        ds = DisjointSet(self.n)
        for a, b in zip(self.edges_u.tolist(), self.edges_v.tolist()):
            if not ds.union(a, b):  # a cycle edge would return False
                return False
        return ds.n_sets == self.n_components


def _hook_with_witness(
    A: Matrix, f: np.ndarray, star: np.ndarray, n: int, conditional: bool
) -> Tuple[int, np.ndarray, np.ndarray]:
    """One hooking phase over the encoded (parent, vertex) pairs.

    Returns (#hooks, winning edge endpoints u, v).
    """
    enc = f * n + np.arange(n, dtype=np.int64)
    # conditional: every vertex's pair; unconditional: nonstars' pairs only
    present = None if conditional else ~star
    if present is not None and not present.any():
        return 0, np.empty(0, np.int64), np.empty(0, np.int64)
    idx, encoded = _min_neighbour_parent(A, enc, star, None, present)
    # strict improvement on the *parent* digits (fn//n < f), or any other
    # parent for unconditional hooks
    proposed, current = encoded // n, f[idx]
    keep = proposed < current if conditional else proposed != current
    hook_vertices, encoded = idx[keep], encoded[keep]
    if hook_vertices.size == 0:
        return 0, hook_vertices, hook_vertices

    roots = f[hook_vertices]
    # dedup per root: min encoded proposal wins, exactly one edge per hook
    order = np.lexsort((encoded, roots))
    roots_s, enc_s, hv_s = roots[order], encoded[order], hook_vertices[order]
    first = np.r_[True, roots_s[1:] != roots_s[:-1]]
    win_roots = roots_s[first]
    win_enc = enc_s[first]
    win_hooker = hv_s[first]
    f[win_roots] = win_enc // n
    # the justifying graph edge is {hooking vertex u, neighbour v}
    return int(win_roots.size), win_hooker, win_enc % n


def spanning_forest(A: Matrix, use_sparsity: bool = True) -> SpanningForest:
    """Compute component labels *and* a spanning forest of each component.

    Runs the LACC iteration schedule with witness-carrying hooking; the
    union of hook edges across iterations is returned.  Output invariants
    (checked by :meth:`SpanningForest.is_spanning` in the tests): exactly
    ``n − #components`` edges, acyclic, connecting each full component.
    """
    if A.nrows != A.ncols or not A.is_symmetric:
        raise ValueError("requires a square symmetric adjacency matrix")
    n = A.nrows
    if n and float(n) * float(n) >= 2.0**63:
        raise ValueError("n too large for the (parent, vertex) pair encoding")
    f = np.arange(n, dtype=np.int64)
    fu: List[np.ndarray] = []
    fv: List[np.ndarray] = []
    if n == 0 or A.nvals == 0:
        return SpanningForest(n, np.empty(0, np.int64), np.empty(0, np.int64), f)

    active = ActiveSet(n, enabled=use_sparsity)
    if use_sparsity:
        active._active &= ~(A.row_degrees() == 0)
    star = starcheck(f, active.mask)
    for _ in range(iteration_bound(n)):
        h1, eu, ev = _hook_with_witness(A, f, star, n, conditional=True)
        if h1:
            fu.append(eu)
            fv.append(ev)
        star = starcheck(f, active.mask)
        h2, eu, ev = _hook_with_witness(A, f, star, n, conditional=False)
        if h2:
            fu.append(eu)
            fv.append(ev)
        star = starcheck(f, active.mask)
        if use_sparsity:
            active.retire(converged_star_vertices(A, f, star, active.mask))
        nonstar = ~star
        scope = nonstar & active._active if use_sparsity else nonstar
        shortcut(f, scope)
        all_stars = not nonstar.any()
        if active.all_converged() or (h1 + h2 == 0 and all_stars):
            break
        star = starcheck(f, active.mask)
    else:
        raise RuntimeError("spanning forest failed to converge (bug)")

    eu = np.concatenate(fu) if fu else np.empty(0, np.int64)
    ev = np.concatenate(fv) if fv else np.empty(0, np.int64)
    return SpanningForest(n, eu, ev, f)
