"""Star hooking — Algorithms 3 (conditional) and 4 (unconditional).

Both steps find, for each star vertex, a neighbouring parent via
``GrB_mxv`` over the *(Select2nd, min)* semiring, then scatter the chosen
parents onto the star roots with ``GrB_assign``:

* **conditional** hooking only fires when the neighbour's parent id is
  *smaller* than the star's root (``f[u] > f[v]``), which makes roots
  strictly decrease and guarantees the forest stays acyclic;
* **unconditional** hooking lets leftover stars hook onto *nonstar*
  neighbours regardless of id order (safe by Lemma 2: a star hooked onto a
  nonstar cannot create a cycle of trees).

Multiple vertices of one star may propose different parents; we combine
proposals per root with *min*, which keeps the algorithm deterministic and
preserves the min-id labelling convention, and then *assign* the result to
the root (``GrB_assign``): the root's current parent takes no part in the
min.  :func:`assign_min` is that write, and every driver's hooks call it.

The steps work on the parent array: the only GraphBLAS call is the masked
``mxv`` (the paper's SpMV), whose input is the parent array wrapped as a
vector; the hook filter, the root lookup and the scatter onto the roots
act on the mxv output's arrays and the parent array.  A fresh run's first
conditional hook makes no GraphBLAS call at all: each row's minimum
neighbour is its first stored column (see :func:`cond_hook`).  The literal
GraphBLAS transcription (``ewise_mult`` → value-masked ``extract`` →
``ewise_mult`` → ``assign``) is ``repro.core.lacc_lagraph._hook``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro.graphblas as gb
from repro.graphblas import Vector
from repro.graphblas import kernels as _kernels
from repro.graphblas import semirings as sr
from repro.graphblas.descriptor import Mask
from repro.graphblas.monoid import MIN_INT64

__all__ = ["cond_hook", "uncond_hook", "assign_min", "HookReport"]


@dataclass
class HookReport:
    """Details of one hooking phase, consumed by the distributed layer's
    cost accounting (which rank owns each updated root)."""

    count: int  # distinct trees hooked
    roots: np.ndarray  # root vertices whose parent was rewritten
    new_parents: np.ndarray  # the values written
    hook_vertices: np.ndarray  # the star vertices that proposed hooks

    def __int__(self) -> int:  # hooks are countable
        return self.count

    def __eq__(self, other):  # allow comparison with plain ints in tests
        if isinstance(other, int):
            return self.count == other
        return NotImplemented


def _min_neighbour_parent(
    A: "gb.Matrix",
    f: np.ndarray,
    star: np.ndarray,
    active: Optional[np.ndarray],
    present: Optional[np.ndarray],
):
    """Step 1 of both variants: for every (active) star vertex, the minimum
    parent ``f[v]`` over its neighbours *v* stored in *present* (``None``:
    all), as the ``(idx, vals)`` of the masked mxv output."""
    allow = star if active is None else star & active
    fn = Vector.empty(f.size, f.dtype)
    gb.mxv(fn, Mask.from_bitmap(allow), None, sr.SEL2ND_MIN_INT64, A,
           Vector.dense(f, present=present))
    return fn.sparse_arrays()


def _no_hooks() -> HookReport:
    empty = np.empty(0, dtype=np.int64)
    return HookReport(0, empty, empty, empty)


def assign_min(f: np.ndarray, roots: np.ndarray, proposals: np.ndarray):
    """The hook write of Algorithms 3–4: combine the proposals per root
    with min and assign ``f[root] = min`` (Algorithm 3, lines 6–12).

    ``proposals[k]`` is offered to root ``roots[k]``.  Returns the
    ``(roots, values)`` written, one entry per distinct root.
    """
    if roots.size == 0:
        return roots, proposals
    idx, vals, _ = _kernels.impl().reduce_by_rows(proposals, roots, MIN_INT64, f.size)
    f[idx] = vals
    return idx, vals


def _scatter_hooks(
    f: np.ndarray, hook_vertices: np.ndarray, proposals: np.ndarray
) -> HookReport:
    """Steps 2–3 shared by both hooking variants.

    ``proposals[k]`` is the new parent id star vertex ``hook_vertices[k]``
    offers its root.  Identify the roots (``f[hook_vertices]`` — within a
    star only the root can be a parent) and :func:`assign_min` onto them.
    """
    idx, vals = assign_min(f, f[hook_vertices], proposals)
    return HookReport(int(idx.size), idx, vals, hook_vertices)


def _first_column_hooks(A: "gb.Matrix", f: np.ndarray, active: Optional[np.ndarray]):
    """:func:`cond_hook` on the identity forest with a neighbour-closed
    scope: hook each scoped row whose first stored column is below it."""
    rows = A.row_degrees() != 0
    if active is not None:
        rows &= active
    rows = np.flatnonzero(rows)
    first = A.indices[A.indptr[rows]]
    hook = first < rows
    rows, first = rows[hook], first[hook]
    f[rows] = first
    return HookReport(int(rows.size), rows, first, rows)


def cond_hook(
    A: "gb.Matrix",
    f: np.ndarray,
    star: np.ndarray,
    active: Optional[np.ndarray] = None,
    *,
    fresh: bool = False,
) -> "HookReport":
    """Conditional star hooking (Algorithm 3).  Returns a
    :class:`HookReport` (int-comparable: number of trees hooked).

    For every star vertex *u* (within the active scope), find the minimum
    parent id among its (active) neighbours; where that improves on
    ``f[u]``, hook ``f[f[u]] = min``.  *f* is updated in place.

    When every scoped vertex has the same parent no neighbour can improve
    on a star's root, so the step is vacuous and skips the mxv: on a giant
    component this is the last iteration's pass over the whole matrix.

    *fresh* promises that *f* is the identity forest and that every
    neighbour of a scoped vertex is scoped, as on a run's first iteration
    from the identity.  Every vertex is then a singleton star and every
    neighbour's parent its own id, so a row's minimum is its first stored
    column (CSR rows are sorted).  Each root is its star's only vertex and
    receives at most one proposal: the hook runs no mxv and no min-combine.
    """
    if fresh:
        return _first_column_hooks(A, f, active)
    if f.size:
        differ = f != f[0 if active is None else np.argmax(active)]
        if active is not None:
            differ &= active
        if not differ.any():
            return _no_hooks()
    idx, vals = _min_neighbour_parent(A, f, star, active, active)
    # Keep strict improvements only (the f[u] > f[v] condition): without
    # this filter stale proposals equal to the current root id would count
    # as hooks and the convergence test would never fire.
    hook = vals < f[idx]
    return _scatter_hooks(f, idx[hook], vals[hook])


def uncond_hook(
    A: "gb.Matrix",
    f: np.ndarray,
    star: np.ndarray,
    active: Optional[np.ndarray] = None,
) -> "HookReport":
    """Unconditional star hooking (Algorithm 4).  Returns a
    :class:`HookReport` (int-comparable: number of trees hooked).

    Stars that survived conditional hooking hook onto any neighbouring
    *nonstar* tree.  The input vector is ``f`` restricted to nonstar
    vertices (the paper's ``GrB_extract`` with the structurally-complemented
    star mask, line 4, built here straight from the nonstar bitmap), so a
    star vertex's mxv result can only come from a nonstar
    neighbour — which also makes the step vacuous in iteration 1, exactly
    the guard the paper applies below Lemma 2.
    """
    nonstar = ~star
    if active is not None:
        nonstar &= active
    if not nonstar.any():
        return _no_hooks()
    idx, vals = _min_neighbour_parent(A, f, star, active, nonstar)
    # A star root may be proposed its own id when a level-2 nonstar vertex
    # points back at it; such no-op hooks must not count (f[u] != f[v]).
    hook = vals != f[idx]
    return _scatter_hooks(f, idx[hook], vals[hook])
