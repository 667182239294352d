"""Communicator backend registry: simulated ranks vs real OS processes.

Two interchangeable implementations of the collectives API exist:

``sim``
    :class:`~repro.mpisim.comm.SimComm` — the always-available in-process
    simulator; each collective is a pure function over per-rank buffers.

``proc``
    :class:`~repro.parallel.ProcComm` — ranks are forked worker
    processes exchanging payloads through shared memory
    (:mod:`repro.parallel`); only available where the ``fork`` start
    method exists (Linux/macOS).

Selection happens once at import time (the ``REPRO_KERNELS`` idiom):

* ``REPRO_BACKEND=sim`` — force the simulator;
* ``REPRO_BACKEND=proc`` — require the real-process backend;
* unset or ``REPRO_BACKEND=auto`` — the simulator (real processes are
  opt-in: they measure wall-clock, the simulator predicts it).

The active backend can be switched afterwards with :func:`set_backend`
or the :func:`use` context manager (the cross-backend conformance and
differential suites flip it this way).  Drivers obtain communicators via
:func:`make_comm` instead of naming :class:`SimComm` directly, which is
what lets ``lacc_spmd`` / ``lacc_2d`` run unchanged on either machine.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterator

ENV_VAR = "REPRO_BACKEND"

BACKENDS = ("sim", "proc")


def _select_initial() -> str:
    requested = os.environ.get(ENV_VAR, "").strip().lower()
    if requested in ("", "auto"):
        return "sim"
    if requested not in BACKENDS:
        raise ValueError(
            f"{ENV_VAR}={requested!r} is not a known communicator backend; "
            f"available: {list(BACKENDS)}"
        )
    return requested


_ACTIVE = _select_initial()


def available() -> list:
    """Names of the selectable backends."""
    return list(BACKENDS)


def active() -> str:
    """Name of the backend :func:`make_comm` currently builds."""
    return _ACTIVE


def set_backend(name: str) -> str:
    """Switch the active backend; returns the previously active name."""
    global _ACTIVE
    if name not in BACKENDS:
        raise ValueError(
            f"unknown communicator backend {name!r}; available: {list(BACKENDS)}"
        )
    previous = _ACTIVE
    _ACTIVE = name
    return previous


@contextlib.contextmanager
def use(name: str) -> Iterator[str]:
    """Context manager: run the body on backend *name*."""
    previous = set_backend(name)
    try:
        yield name
    finally:
        set_backend(previous)


def make_comm(size, faults=None, cost=None):
    """A communicator of *size* ranks on the active backend.

    Same constructor contract as :class:`~repro.mpisim.comm.SimComm`
    (see :class:`~repro.mpisim.envelope.CommBase` for the parameters);
    the ``proc`` backend is imported lazily so the simulator never pays
    for — or requires — the multiprocessing machinery.
    """
    if _ACTIVE == "proc":
        from repro.parallel import ProcComm

        return ProcComm(size, faults=faults, cost=cost)
    from .comm import SimComm

    return SimComm(size, faults=faults, cost=cost)
