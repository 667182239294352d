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

__all__ = ["shortcut"]


def shortcut(f: np.ndarray, scope: Optional[np.ndarray] = None) -> int:
    """Replace parents by grandparents; returns #vertices whose parent
    changed.

    Parameters
    ----------
    f:
        Parent array, updated in place.
    scope:
        Optional boolean bitmap restricting the jump to those vertices
        (the optimised algorithm passes "active nonstars"); ``None``
        follows the unoptimised Algorithm 1 and jumps everyone.
    """
    gf = f[f]  # gathered before any write: one synchronous jump
    moved = gf != f
    if scope is not None:
        moved &= scope
    changed = int(np.count_nonzero(moved))
    if changed:
        np.copyto(f, gf, where=moved)
    return changed
