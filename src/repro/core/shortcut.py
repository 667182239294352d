"""Shortcut — Algorithm 5: one pointer-jumping step.

Every (scoped) vertex replaces its parent by its grandparent,
``f[v] = f[f[v]]``, halving the depth of every nonstar tree.  Per Table I
the step only needs to touch nonstars after unconditional hooking — star
vertices already point at their root, so jumping them is a no-op the
optimised variant skips entirely.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

import repro.graphblas as gb
from repro.graphblas import Vector

__all__ = ["shortcut"]


def shortcut(f: Vector, scope: Optional[np.ndarray] = None) -> int:
    """Replace parents by grandparents; returns #vertices whose parent
    changed.

    Parameters
    ----------
    f:
        Parent vector, updated in place.
    scope:
        Optional boolean bitmap restricting the jump to those vertices
        (the optimised algorithm passes "active nonstars"); ``None``
        follows the unoptimised Algorithm 1 and jumps everyone.
    """
    idx = np.arange(f.size, dtype=np.int64) if scope is None else np.flatnonzero(scope)
    fv = f.to_numpy()
    parents = fv[idx]
    gv = fv[parents]  # gf = f[f] on the scope
    moved = gv != parents
    changed = int(np.count_nonzero(moved))
    if changed:
        # f ← gf where the parent moved (GrB_assign)
        gb.assign(f, None, None, Vector.dense(gv[moved]), idx[moved])
    return changed
