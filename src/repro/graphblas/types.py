"""Value types for the GraphBLAS substrate.

The GraphBLAS C API defines a small set of predefined scalar types
(``GrB_BOOL``, ``GrB_INT64``, ``GrB_FP64``, ...).  We mirror the subset LACC
needs on top of NumPy dtypes and centralise the casting rules so that every
operation in :mod:`repro.graphblas.ops` agrees on how mixed-type inputs are
promoted.

LACC itself only ever uses three types:

* ``INT64`` for parent / grandparent vectors (vertex ids),
* ``BOOL`` for the star-membership vector and masks,
* ``FP64`` in the Markov-clustering application built on the same substrate.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = [
    "BOOL",
    "INT32",
    "INT64",
    "UINT64",
    "FP32",
    "FP64",
    "GrBType",
    "normalize_dtype",
    "promote",
]

# Public aliases mirroring the GrB_* predefined types.
BOOL = np.dtype(np.bool_)
INT32 = np.dtype(np.int32)
INT64 = np.dtype(np.int64)
UINT64 = np.dtype(np.uint64)
FP32 = np.dtype(np.float32)
FP64 = np.dtype(np.float64)

GrBType = np.dtype

_SUPPORTED = (BOOL, INT32, INT64, UINT64, FP32, FP64)


def normalize_dtype(dtype: Union[str, np.dtype, type]) -> np.dtype:
    """Return the canonical dtype for *dtype*, rejecting unsupported ones.

    Accepts NumPy dtypes, Python scalar types (``int``, ``float``, ``bool``)
    and strings (``"int64"``).  Raises :class:`TypeError` for anything the
    substrate does not support (e.g. complex or object dtypes).
    """
    if dtype is int:
        return INT64
    if dtype is float:
        return FP64
    if dtype is bool:
        return BOOL
    dt = np.dtype(dtype)
    if dt not in _SUPPORTED:
        raise TypeError(f"unsupported GraphBLAS type: {dt!r}")
    return dt


def promote(a: np.dtype, b: np.dtype) -> np.dtype:
    """Type promotion used by element-wise and semiring operations.

    Follows NumPy promotion restricted to the supported set; bool with bool
    stays bool, integer with float promotes to float, etc.
    """
    a = normalize_dtype(a)
    b = normalize_dtype(b)
    if a == b:
        return a
    return normalize_dtype(np.promote_types(a, b))

