"""repro.faults — deterministic fault injection for the simulated machine.

The paper's machines (Edison/Cori, §V) are flaky, skewed, distributed
hardware; a reproduction whose simulated network is perfect never
exercises the recovery behaviour a production system needs.  This package
makes the simulator imperfect *on purpose* and deterministically:

* :mod:`repro.faults.plan` — :class:`FaultPlan` / :class:`FaultRule`:
  seed-reproducible schedules of message truncation, payload corruption,
  duplicated/zeroed buffers, straggler delays and transient or permanent
  collective failure, rank crashes and process faults (``kill`` /
  ``stop`` / ``exit`` / ``frame``), with per-collective / per-phase
  match rules and named presets (``flaky``, ``stragglers``, ``outage``,
  ``permanent``, ``crash``; ``kill``, ``stall``, ``exit``, ``frame``,
  ``shrink``).
* :mod:`repro.faults.injector` — checksums and the buffer mutations the
  :class:`repro.mpisim.SimComm` retry-with-validation envelope detects.
* :mod:`repro.faults.errors` — :class:`CollectiveError`, the typed
  failure raised when retries exhaust (the *fail loud or answer right*
  contract).

Typical use::

    from repro.faults import preset
    from repro.core.lacc_spmd import lacc_spmd

    plan = preset("flaky", seed=7)
    res = lacc_spmd(g, ranks=4, faults=plan)   # recovers transparently
    print(plan.summary(), plan.to_json())      # reproducible given seed

See ``docs/ROBUSTNESS.md`` for the fault model and how to write plans.
"""

from .errors import CollectiveError, FaultError
from .injector import checksum, checksums, inject
from .plan import (
    DATA_FAULT_KINDS,
    FAULT_KINDS,
    PRESETS,
    PROC_FAULT_KINDS,
    PROC_PRESETS,
    FaultCall,
    FaultEvent,
    FaultPlan,
    FaultRule,
    preset,
)

__all__ = [
    "FAULT_KINDS",
    "DATA_FAULT_KINDS",
    "PROC_FAULT_KINDS",
    "FaultRule",
    "FaultEvent",
    "FaultCall",
    "FaultPlan",
    "PRESETS",
    "PROC_PRESETS",
    "preset",
    "FaultError",
    "CollectiveError",
    "checksum",
    "checksums",
    "inject",
]
