"""Serialization of GraphBLAS objects to NumPy ``.npz`` archives.

Long-running pipelines (HipMCL jobs cluster for hours) need to checkpoint
matrices and result vectors; ``.npz`` keeps the dependency footprint at
zero while storing the exact CSR/sparse-vector arrays, dtypes included.
Round-trips are exact (tested), and each archive carries a ``kind``
field that its loader checks.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Mapping, Tuple, Union

import numpy as np

from .matrix import Matrix
from .vector import Vector

__all__ = [
    "save_matrix",
    "load_matrix",
    "save_state",
    "load_state",
]

PathLike = Union[str, os.PathLike]


def save_matrix(path: PathLike, m: Matrix) -> None:
    """Write a matrix's CSR arrays."""
    np.savez_compressed(
        path,
        kind="matrix",
        nrows=m.nrows,
        ncols=m.ncols,
        indptr=m.indptr,
        indices=m.indices,
        values=m.values,
    )


def load_matrix(path: PathLike) -> Matrix:
    """Read a matrix written by :func:`save_matrix`.

    Symmetry is computed from the pattern on first use, never read from
    the file: a stored flag would let a one-directional archive skip the
    check LACC relies on.  Older archives that carry one still load.
    """
    with np.load(path, allow_pickle=False) as z:
        if str(z["kind"]) != "matrix":
            raise ValueError(f"{path}: not a serialized Matrix")
        return Matrix(
            int(z["nrows"]),
            int(z["ncols"]),
            z["indptr"],
            z["indices"],
            z["values"],
        )


def save_state(
    path: PathLike,
    vectors: Mapping[str, Vector],
    meta: Mapping[str, Any] | None = None,
) -> None:
    """Write several named vectors plus a JSON metadata blob in one ``.npz``.

    This is the checkpoint container of :mod:`repro.recovery`: one archive
    holds the parent vector, star flags and active bitmap of a LACC
    iteration, next to scalar facts (iteration number, simulated clock,
    fault-plan cursor, CRC) that must survive a process restart.  Names
    must be simple identifiers; each vector is stored as its sparse arrays
    plus its logical size, so round-trips are lossless across all dtypes
    and storage modes.
    """
    payload: Dict[str, Any] = {
        "kind": "state",
        "meta_json": json.dumps(dict(meta or {}), sort_keys=True),
        "names": np.array(sorted(vectors), dtype=np.str_),
    }
    for name, v in vectors.items():
        if not name.isidentifier():
            raise ValueError(f"state entry name {name!r} must be an identifier")
        idx, vals = v.sparse_arrays()
        payload[f"v_{name}_size"] = v.size
        payload[f"v_{name}_indices"] = idx
        payload[f"v_{name}_values"] = vals
    np.savez_compressed(path, **payload)


def load_state(path: PathLike) -> Tuple[Dict[str, Vector], Dict[str, Any]]:
    """Read a ``(vectors, meta)`` bundle written by :func:`save_state`."""
    with np.load(path, allow_pickle=False) as z:
        if str(z["kind"]) != "state":
            raise ValueError(f"{path}: not a serialized state bundle")
        meta = json.loads(str(z["meta_json"]))
        vectors: Dict[str, Vector] = {}
        for name in [str(x) for x in z["names"]]:
            vectors[name] = Vector.sparse(
                int(z[f"v_{name}_size"]),
                z[f"v_{name}_indices"],
                z[f"v_{name}_values"],
            )
    return vectors, meta

