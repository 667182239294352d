"""A from-scratch GraphBLAS-style sparse linear-algebra substrate.

This package provides the subset of the GraphBLAS C API that the paper's
algorithms (LACC, Algorithms 3–6) and the Markov-clustering application are
written in: typed sparse vectors with a dense fast path, CSR/DCSC sparse
matrices, semirings (notably the paper's *(Select2nd, min)*), and the
operations ``mxv`` (with SpMV/SpMSpV dispatch), ``eWiseMult``, ``extract``
and ``assign`` with GraphBLAS mask / structural-complement / replace
semantics, plus ``mxm`` and matrix ``reduce`` for Markov clustering.

Quick example::

    from repro import graphblas as gb

    A = gb.Matrix.adjacency(4, [0, 1, 2], [1, 2, 3])
    f = gb.Vector.iota(4)
    fn = gb.Vector.empty(4)
    gb.mxv(fn, None, None, gb.semirings.SEL2ND_MIN_INT64, A, f)
"""

from . import binaryop as binaryops
from . import kernels
from . import serialize
from . import monoid as monoids
from . import semiring as semirings
from .binaryop import BinaryOp
from .descriptor import NULL, REPLACE, SCMP, SCMP_REPLACE, Descriptor, Mask
from .matrix import DCSC, Matrix
from .monoid import Monoid
from .ops import (
    assign,
    assign_scalar,
    ewise_mult,
    extract,
    mxm,
    mxv,
    reduce_matrix,
)
from .ops_matrix import (
    diagonal,
    identity,
    matrix_apply,
    matrix_ewise_add,
    matrix_scale_columns,
    matrix_select,
    transpose,
)
from .semiring import Semiring
from .types import BOOL, FP32, FP64, INT32, INT64, UINT64
from .vector import Vector

__all__ = [
    "BinaryOp",
    "Monoid",
    "Semiring",
    "Vector",
    "Matrix",
    "DCSC",
    "Mask",
    "Descriptor",
    "NULL",
    "SCMP",
    "REPLACE",
    "SCMP_REPLACE",
    "binaryops",
    "monoids",
    "semirings",
    "kernels",
    "serialize",
    "mxv",
    "mxm",
    "ewise_mult",
    "extract",
    "assign",
    "assign_scalar",
    "reduce_matrix",
    "matrix_apply",
    "matrix_select",
    "matrix_ewise_add",
    "matrix_scale_columns",
    "diagonal",
    "identity",
    "transpose",
    "BOOL",
    "INT32",
    "INT64",
    "UINT64",
    "FP32",
    "FP64",
]
