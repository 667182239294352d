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

Each pass is a full-length gather, scatter or elementwise op on the parent
array: a boolean compress of the scope costs more than a pass over all n.
The literal GraphBLAS transcription (extract → ewise_mult → masked extract
→ scalar assigns) is ``repro.core.lacc_lagraph._starcheck``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["starcheck"]


def starcheck(f: np.ndarray, active: Optional[np.ndarray] = None) -> np.ndarray:
    """Return the boolean star-membership array for the parent array *f*.

    Parameters
    ----------
    f:
        Parent array (integer, every entry a vertex id).
    active:
        Optional boolean bitmap of non-converged vertices.  Converged
        vertices are stars by definition (Lemma 1) and are reported as
        such — the sparsity column of Table I ("nonstars after
        unconditional hooking").

    Returns
    -------
    numpy.ndarray
        Boolean array, ``star[v]`` true iff *v* is in a star tree.
    """
    # scoped vertices whose parent differs from their grandparent, and
    # those grandparents, are nonstars (Algorithm 6 lines 4-10): full-length
    # passes with no boolean compress, the grandparents scattering into a
    # spare slot n where v is not a nonstar
    n = f.size
    gp = f[f]
    neq = f != gp
    if active is not None:
        neq &= active
    buf = np.empty(n + 1, dtype=np.bool_)
    star = buf[:n]
    np.logical_not(neq, out=star)
    buf[np.where(neq, gp, n)] = False
    # star[v] &= star[f[v]] (lines 12-14).  The paper writes this as
    # extract + masked assign; the net effect must only ever *clear*
    # flags — a level-3 vertex whose level-2 parent is still
    # (transiently) flagged true must not be resurrected, so we combine
    # with logical AND rather than overwrite.
    fixup = star[f]
    if active is not None:
        fixup |= ~active
    star &= fixup
    return star
