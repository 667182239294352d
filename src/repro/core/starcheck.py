"""Starcheck — Algorithm 6 of the paper (and Algorithm 2 of the AS
pseudocode): recompute which vertices belong to star trees.

A tree is a *star* when every vertex is a child of the root (and the root
is a child of itself).  Equivalently, vertex *v* is a star vertex iff

1. no vertex in its tree has a grandparent different from its parent, and
2. its parent is a star vertex (propagates the root's verdict to level 2).

The three passes below mirror the paper exactly:

* mark all (active) vertices stars,
* every vertex with ``f[v] != gf[v]`` — and its grandparent — is a nonstar
  (this catches all vertices at level ≥ 3 and all roots of deep trees),
* ``star[v] = star[f[v]]`` fixes up level-2 vertices of nonstar trees.

Each pass is a gather or scatter on the parent array.  The literal
GraphBLAS transcription (extract → ewise_mult → masked extract → scalar
assigns) is ``repro.core.lacc_lagraph._starcheck``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphblas import Vector

__all__ = ["starcheck"]


def starcheck(f: Vector, active: Optional[np.ndarray] = None) -> Vector:
    """Return the boolean star-membership vector for the current forest.

    Parameters
    ----------
    f:
        Parent vector (full pattern over all vertices).
    active:
        Optional boolean bitmap of non-converged vertices.  Converged
        vertices are stars by definition (Lemma 1) and are reported as
        such, but no work is spent on them — the sparsity column of
        Table I ("nonstars after unconditional hooking").

    Returns
    -------
    Vector
        Dense boolean vector, ``star[v]`` true iff *v* is in a star tree.
    """
    fv = f.to_numpy()
    star = np.ones(f.size, dtype=np.bool_)
    s = np.arange(f.size, dtype=np.int64) if active is None else np.flatnonzero(active)
    if s.size:
        p = fv[s]
        gp = fv[p]
        # scoped vertices whose parent differs from their grandparent, and
        # those grandparents, are nonstars (Algorithm 6 lines 4-10)
        neq = p != gp
        star[s[neq]] = False
        star[gp[neq]] = False
        # star[v] &= star[f[v]] (lines 12-14).  The paper writes this as
        # extract + masked assign; the net effect must only ever *clear*
        # flags — a level-3 vertex whose level-2 parent is still
        # (transiently) flagged true must not be resurrected, so we combine
        # with logical AND rather than overwrite.
        star[s] &= star[p]
    return Vector.dense(star)
