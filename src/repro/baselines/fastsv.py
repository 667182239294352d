"""FastSV (Zhang, Azad & Hu) — the successor algorithm the repro bands
mention (LAGraph's connected components is FastSV-based).

FastSV simplifies SV/AS by dropping star detection entirely: every
iteration performs (1) *stochastic hooking* ``f[f[u]] = min(f[f[u]], f[v])``
on every edge, (2) *aggressive hooking* ``f[u] = min(f[u], f[v])``, and
(3) shortcutting ``f = f[f]`` — converging when the grandparent vector
stabilises.  Included as a related-work baseline so the benchmark suite can
compare the AS-with-starcheck design against the starcheck-free design.
"""

from __future__ import annotations

import numpy as np

__all__ = ["connected_components", "fastsv_iterations"]


def _run(n: int, u: np.ndarray, v: np.ndarray):
    f = np.arange(n, dtype=np.int64)
    iters = 0
    while True:
        iters += 1
        gf = f[f]
        # stochastic hooking: hook grandparent of u onto parent of v
        np.minimum.at(f, f[u], gf[v])
        np.minimum.at(f, f[v], gf[u])
        # aggressive hooking: hook u itself onto the best parent seen
        np.minimum.at(f, u, gf[v])
        np.minimum.at(f, v, gf[u])
        # shortcutting
        f = np.minimum(f, f[f])
        new_gf = f[f]
        if np.array_equal(new_gf, gf):
            return f, iters


def connected_components(n: int, u, v) -> np.ndarray:
    """Min-id component labels via FastSV."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keep = u != v
    f, _ = _run(n, u[keep], v[keep])
    return f


def fastsv_iterations(n: int, u, v) -> int:
    """Iterations until the grandparent vector stabilises."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keep = u != v
    _, iters = _run(n, u[keep], v[keep])
    return iters
