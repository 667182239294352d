"""Converged-component tracking — the paper's Lemma 1, strengthened.

    *Except in the first iteration, all remaining stars after unconditional
    hooking are converged components.* (Lemma 1)

The proof assumes every edge between a surviving star S and another tree T
was usable by one of the two hooking phases.  Our reproduction found a
counterexample for the *as-published Algorithm 4*: when a tree T is
extended **during** conditional hooking and ends up being structurally a
star (e.g. singleton 55 hooks onto root 28, leaving {28, 93, 94, 55} a
perfect star), the mid-iteration starcheck classifies T's vertices as star
vertices, so Algorithm 4's ``GrB_extract`` of *nonstar* parents excludes
them — and an edge {u∈S, v∈T} fires in neither phase.  S then survives as
a star and Lemma 1 would retire it while it still has an external edge,
splitting a component.  (Allowing star→star unconditional hooks instead
creates 2-cycles: two extended stars can hook onto each other.)

We therefore retire stars using the *semantic* definition of convergence:

    a star is converged iff no member has a neighbour outside the star,

checked with one pass over the rows of the surviving star vertices that
yields both the min and the max neighbouring parent (both equal the root
iff every neighbour is internal) — the *(Select2nd, min)* and *(Select2nd,
max)* products fused into one kernel-tier call.  This is sound in every iteration
(including the first), and costs the same asymptotic work as one hooking
phase over a set that shrinks geometrically.  Unconverged stars simply stay
active and hook in the next iteration's conditional phase, exactly as in
the original Awerbuch–Shiloach schedule.  The deviation is recorded in
DESIGN.md.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphblas import Matrix
from repro.graphblas import kernels as _kernels
from repro.graphblas.ops import MASKED_SPMV_ROW_FRACTION

__all__ = ["ActiveSet", "converged_star_vertices", "iteration_bound"]


def iteration_bound(n: int) -> int:
    """Safety bound on LACC iterations over *n* vertices, ``4·⌈log2 n⌉ + 8``.

    AS converges in ``O(log n)`` iterations, so a driver that reaches the
    bound has a bug and raises ``RuntimeError``.
    """
    return 4 * max(int(np.ceil(np.log2(max(n, 2)))), 1) + 8


def converged_star_vertices(
    A: Matrix,
    f: np.ndarray,
    star: np.ndarray,
    active: Optional[np.ndarray],
) -> np.ndarray:
    """Bitmap of star vertices whose whole star has no external edges.

    Implements the strengthened Lemma-1 check described in the module
    docstring on the parent array *f* and the star bitmap *star*.  Only
    vertices inside the *active* scope are considered (``None`` = all
    vertices).
    """
    star_allow = star if active is None else star & active
    if not star_allow.any():
        return star_allow.copy()

    # min and max neighbouring parent of every allowed star vertex in one
    # pass; past mxv's masked-SpMV row fraction every row is streamed and
    # the other rows' results are dropped below
    rows_sel = np.flatnonzero(star_allow)
    if rows_sel.size > MASKED_SPMV_ROW_FRACTION * A.nrows:
        rows_sel = None
    idx, fmin, fmax = _kernels.impl().spmv_rows_minmax(A, f, active, rows_sel)

    # a member u sees an external tree iff the min or max parent among its
    # active neighbours differs from its own root f[u]
    root = f[idx]
    external = idx[star_allow[idx] & ((fmin != root) | (fmax != root))]

    # a star converges only when *no* member is external: mark bad roots
    bad_root = np.zeros(f.size, dtype=bool)
    bad_root[f[external]] = True
    return star_allow & ~bad_root[f]


class ActiveSet:
    """Bitmap of non-converged vertices plus retirement bookkeeping."""

    def __init__(self, n: int, enabled: bool = True):
        self.n = n
        self.enabled = enabled
        self._active = np.ones(n, dtype=bool)

    @property
    def mask(self) -> Optional[np.ndarray]:
        """Bitmap to scope operations with, or ``None`` when tracking is
        disabled (the unoptimised baseline) — callers then process all
        vertices like the original PRAM formulation."""
        return self._active if self.enabled else None

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self._active)) if self.enabled else self.n

    @property
    def converged_count(self) -> int:
        return self.n - int(np.count_nonzero(self._active)) if self.enabled else 0

    def retire(self, bitmap: np.ndarray) -> int:
        """Deactivate the vertices in *bitmap*; returns how many retired."""
        if not self.enabled:
            return 0
        newly = self._active & bitmap
        count = int(np.count_nonzero(newly))
        if count:
            self._active &= ~newly
        return count

    def all_converged(self) -> bool:
        return self.enabled and not self._active.any()
