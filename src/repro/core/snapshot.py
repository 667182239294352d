"""Iteration-boundary state snapshots — the driver side of checkpointing.

Every LACC driver (:func:`repro.core.lacc`, :func:`~repro.core.lacc_dist`,
:func:`~repro.core.lacc_spmd.lacc_spmd`, :func:`~repro.core.lacc_2d.lacc_2d`)
accepts an ``on_iteration`` callback and invokes it with an
:class:`IterationSnapshot` at the end of each iteration.  The snapshot is
the complete restartable state of the run:

* ``parents`` — the parent vector **in original vertex space** (the
  distributed driver un-permutes before snapshotting, so snapshots are
  interchangeable across drivers — the degraded single-node replay of
  :mod:`repro.recovery` depends on this);
* ``star`` / ``active`` — the derived star flags and active bitmap as of
  the last starcheck.  Both are advisory: resuming drivers recompute them
  from ``parents``, and the :class:`repro.recovery.StateAuditor` refreshes
  them during repair;
* ``simulated_seconds`` — the α–β clock (0.0 for wall-clock drivers);
* ``plan_cursor`` — the fault plan's RNG cursor
  (:attr:`repro.faults.FaultPlan.cursor`), recorded so a recovered run's
  fault schedule can be audited against the injection log.

The callback may raise: :class:`repro.recovery.Supervisor` uses this for
its watchdog — an iteration whose simulated time overruns the deadline
raises :class:`~repro.recovery.WatchdogTimeout` out of the driver, which
unwinds cleanly (spans close with the error recorded) and triggers
recovery.

Drivers also accept ``initial_parents`` (original vertex space) and
``start_iteration`` so a run can resume from any snapshot: Awerbuch–
Shiloach is self-stabilizing, so any in-range parent forest converges to
the same components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["IterationSnapshot", "IterationHook"]


@dataclass
class IterationSnapshot:
    """Restartable LACC state at one iteration boundary."""

    iteration: int
    parents: np.ndarray  # int64, original vertex space, caller-owned copy
    star: Optional[np.ndarray] = None  # bool, as of the last starcheck
    active: Optional[np.ndarray] = None  # bool non-converged bitmap
    simulated_seconds: float = 0.0  # α–β clock (0.0 on wall-clock drivers)
    plan_cursor: int = 0  # fault plan RNG cursor

    @property
    def n(self) -> int:
        return int(self.parents.size)


#: signature of the per-iteration callback drivers accept
IterationHook = Callable[[IterationSnapshot], None]


def validate_initial_parents(parents, n: int) -> np.ndarray:
    """Check and normalise a resume parent vector (length & range);
    ``None`` is a fresh start, the identity."""
    if parents is None:
        return np.arange(n, dtype=np.int64)
    f0 = np.asarray(parents, dtype=np.int64)
    if f0.shape != (n,):
        raise ValueError(
            f"initial_parents must have shape ({n},), got {f0.shape}"
        )
    if f0.size and (f0.min() < 0 or f0.max() >= n):
        raise ValueError(
            "initial_parents contains out-of-range entries — run "
            "repro.recovery.StateAuditor.repair() before resuming"
        )
    return f0.copy()
