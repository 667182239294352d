"""Ground-truth connectivity and label validation helpers.

Connected-component *labels* are only meaningful up to relabelling: two
labelings agree when they induce the same partition of the vertices.  The
test and benchmark suites use :func:`same_partition` rather than array
equality, and :func:`ground_truth` (scipy's connected_components on the
adjacency matrix) as the independent oracle.
"""

from __future__ import annotations

import numpy as np

from .generators import EdgeList

__all__ = [
    "ground_truth",
    "same_partition",
    "canonical_labels",
    "is_min_label",
    "component_sizes",
]


def ground_truth(g: EdgeList) -> np.ndarray:
    """Component labels via scipy (independent of everything in repro)."""
    from scipy import sparse as sp
    from scipy.sparse import csgraph

    adj = sp.coo_matrix(
        (np.ones(g.nedges, dtype=np.int8), (g.u, g.v)), shape=(g.n, g.n)
    )
    _, labels = csgraph.connected_components(adj, directed=False)
    return labels.astype(np.int64)


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel so every component is named by its smallest member vertex."""
    labels = np.asarray(labels)
    n = labels.size
    out = np.full(n, -1, dtype=np.int64)
    # first occurrence of each label value, scanning ascending vertex ids
    order = np.arange(n)
    first = {}
    for i in order:
        lbl = labels[i]
        if lbl not in first:
            first[lbl] = i
        out[i] = first[lbl]
    return out


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    """True when labelings *a* and *b* induce the same vertex partition."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return np.array_equal(canonical_labels(a), canonical_labels(b))


def is_min_label(labels: np.ndarray) -> bool:
    """True when every vertex's label is the smallest vertex id in its
    component — LACC's output convention (min-id roots win all hooks)."""
    labels = np.asarray(labels)
    return np.array_equal(labels, canonical_labels(labels))


def component_sizes(labels: np.ndarray) -> np.ndarray:
    """Sizes of the components, descending."""
    _, counts = np.unique(np.asarray(labels), return_counts=True)
    return np.sort(counts)[::-1]
