"""Kernel tier registry for the GraphBLAS hot paths.

The substrate's inner loops — CSR SpMV/SpMSpV, the sorted-merge masked
writes, and the packed-key segment reductions — exist in two
interchangeable implementations ("tiers"):

``numpy``
    The always-available reference tier (:mod:`._numpy`): vectorised NumPy,
    no dependencies beyond the core install.

``compiled``
    Numba ``@njit`` kernels (:mod:`._compiled`), registered only when
    numba imports.  ``pip install -e .[perf]`` pulls it in.  On the LACC
    hot kernels the compiled tier is gated at ≥10× over NumPy by
    ``benchmarks/bench_frontier_sweep.py --check-compiled``.

Selection happens once at import time:

* ``REPRO_KERNELS=numpy`` — force the NumPy tier (silences the fallback
  warning).
* ``REPRO_KERNELS=compiled`` — require the compiled tier; raises
  ``RuntimeError`` if numba is missing.
* unset or ``REPRO_KERNELS=auto`` — use ``compiled`` when numba is
  available, else fall back to ``numpy`` with a one-line
  ``RuntimeWarning``.

The active tier can be switched afterwards with :func:`set_tier` or the
:func:`use` context manager (tests use this to force a tier regardless of
the environment), and third-party tiers can be added via
:func:`register_tier`.  Every ``mxv`` span records which tier actually
ran in its ``tier`` attribute.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from types import ModuleType
from typing import Dict, Iterator, List

from . import _numpy

ENV_VAR = "REPRO_KERNELS"

_TIERS: Dict[str, ModuleType] = {"numpy": _numpy}

HAVE_NUMBA = False
try:  # pragma: no cover - exercised only where numba is installed
    import numba as _numba  # noqa: F401

    HAVE_NUMBA = True
except ImportError:
    _numba = None

if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed
    from . import _compiled

    _TIERS["compiled"] = _compiled


def _select_initial() -> str:
    requested = os.environ.get(ENV_VAR, "").strip().lower()
    if requested in ("", "auto"):
        if HAVE_NUMBA:
            return "compiled"
        if requested == "":
            warnings.warn(
                "repro.graphblas.kernels: numba not installed; using the NumPy "
                "kernel tier (install with 'pip install -e .[perf]' or set "
                "REPRO_KERNELS=numpy to silence this warning)",
                RuntimeWarning,
                stacklevel=2,
            )
        return "numpy"
    if requested == "compiled" and not HAVE_NUMBA:
        raise RuntimeError(
            "REPRO_KERNELS=compiled but numba is not installed; "
            "install it with 'pip install -e .[perf]'"
        )
    if requested not in _TIERS:
        raise ValueError(
            f"REPRO_KERNELS={requested!r} is not a known kernel tier; "
            f"available: {sorted(_TIERS)}"
        )
    return requested


_ACTIVE = _select_initial()
_ACTIVE_MOD: ModuleType = _TIERS[_ACTIVE]


def available() -> List[str]:
    """Names of the registered tiers, sorted."""
    return sorted(_TIERS)


def active() -> str:
    """Name of the tier the hot paths currently dispatch to."""
    return _ACTIVE


def impl() -> ModuleType:
    """The active tier's implementation module."""
    return _ACTIVE_MOD


def get(name: str) -> ModuleType:
    """A registered tier's module by name (KeyError if unknown)."""
    return _TIERS[name]


def set_tier(name: str) -> str:
    """Switch the active tier; returns the previously active name."""
    global _ACTIVE, _ACTIVE_MOD
    if name not in _TIERS:
        raise ValueError(
            f"unknown kernel tier {name!r}; available: {sorted(_TIERS)}"
        )
    previous = _ACTIVE
    _ACTIVE = name
    _ACTIVE_MOD = _TIERS[name]
    return previous


@contextlib.contextmanager
def use(name: str) -> Iterator[ModuleType]:
    """Context manager: run the body with *name* as the active tier."""
    previous = set_tier(name)
    try:
        yield _ACTIVE_MOD
    finally:
        set_tier(previous)


def register_tier(name: str, module: ModuleType) -> None:
    """Register an additional tier implementing the kernel API.

    The module must provide the same callables as :mod:`._numpy`
    (``spmv``, ``spmspv``, ``merge_union``, ``reduce_by_rows``, ...).
    Registering an existing name replaces it, except ``numpy`` which is
    the reference tier and cannot be shadowed.
    """
    if name == "numpy" and module is not _numpy:
        raise ValueError("the 'numpy' reference tier cannot be replaced")
    missing = [fn for fn in _numpy.__all__ if fn != "TIER_NAME" and not hasattr(module, fn)]
    if missing:
        raise ValueError(
            f"kernel tier {name!r} is missing required kernels: {missing}"
        )
    _TIERS[name] = module
