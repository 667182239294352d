"""Sort-based dedup and counting helpers for the hot index paths.

NumPy ≥ 2.3 answers a bare ``np.unique(a)`` with a hash table
(``_unique_hash``), which on a few-million-entry int64 key is well over an
order of magnitude slower than ``np.sort`` of the same key, and so is
``np.lexsort`` over two keys.  The substrate and the LACC drivers
therefore dedup with one single-key sort plus a boundary flag, through
the functions here.

This module imports nothing from :mod:`repro`, so :mod:`.vector`,
:mod:`.matrix`, :mod:`.ops` and :mod:`repro.core` all use it without
import cycles.  See ``docs/PERFORMANCE.md`` ("Sort, don't hash").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["run_starts", "unique_sorted", "pack_pairs", "count_distinct"]

# Packed keys must stay below this bound so ``major·bound + minor`` cannot
# overflow int64 (the same guard the packed reduce_by_rows kernel uses).
PACK_LIMIT = 2 ** 62


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean flags, ``True`` where a run of equal keys begins in the
    sorted 1-D array *sorted_keys*."""
    flags = np.empty(sorted_keys.size, dtype=bool)
    if sorted_keys.size:
        flags[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=flags[1:])
    return flags


def unique_sorted(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of the 1-D integer array *keys* — what
    ``np.unique(keys)`` returns, by one sort instead of a hash table."""
    s = np.sort(keys)
    return s[run_starts(s)]


def pack_pairs(
    major: np.ndarray, minor: np.ndarray, major_bound: int, minor_bound: int
) -> Optional[np.ndarray]:
    """One int64 key ``major·minor_bound + minor`` whose order is the
    lexicographic ``(major, minor)`` order, or ``None`` when
    ``major_bound·minor_bound`` could overflow it (callers fall back to
    ``np.lexsort``).  Both inputs are non-negative int64 below their
    bounds."""
    if int(major_bound) * int(minor_bound) >= PACK_LIMIT:
        return None
    return major * int(minor_bound) + minor


def count_distinct(labels: np.ndarray) -> int:
    """Number of distinct values in an array of non-negative integers —
    the component count of a parent or label vector."""
    return int(np.count_nonzero(np.bincount(labels)))
