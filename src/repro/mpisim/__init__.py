"""Simulated distributed-memory runtime.

The paper's experiments ran on Cray XC30/XC40 machines that are not
available here, so scaling behaviour is reproduced with a deterministic
simulator: :class:`~repro.mpisim.machine.MachineModel` carries Table II's
hardware constants, :class:`~repro.mpisim.costmodel.CostModel` accumulates
the §V-A quantities (scalar ops *F*, words *W*, messages *S*) and prices
them as ``T = F·t_mem + β·W + α·S``, and
:mod:`~repro.mpisim.collectives` prices each MPI collective — including
the hypercube and sparse all-to-alls of §V-B.
:class:`~repro.mpisim.comm.SimComm` additionally performs literal per-rank
data movement so tests can validate the analytic accounting against a real
execution.  It carries the two collectives LACC's distributed drivers run,
``alltoallv`` and ``allreduce``, whose one body lives on
:class:`~repro.mpisim.envelope.CommBase`; the analytic layer also prices
the broadcasts, allgathers and reduce-scatters of CombBLAS's cost model.

Both layers accept a :class:`repro.faults.FaultPlan` (``SimComm(p,
faults=plan)`` / ``CostModel(..., faults=plan)``) that injects
deterministic, seed-reproducible faults — truncation, corruption,
stragglers, transient or permanent collective failure.  Transient faults
are healed by a retry-with-validation envelope whose recovery time is
priced in simulated seconds; permanent faults raise
:class:`~repro.faults.CollectiveError` (re-exported here) rather than
ever producing wrong data.

:class:`SimComm` is one of two exchanges behind that body:
:mod:`repro.mpisim.backend` selects between it and the real-process
:class:`~repro.parallel.ProcComm` (``REPRO_BACKEND=sim|proc``), and
drivers obtain communicators through :func:`make_comm` so they run
unchanged on either machine.
"""

from repro.faults.errors import CollectiveError

from . import backend, collectives
from .backend import make_comm
from .comm import SimComm
from .costmodel import CostModel, PhaseCost
from .envelope import CommBase
from .grid import ProcessGrid
from .machine import CORI_KNL, EDISON, LAPTOP, MachineModel

__all__ = [
    "MachineModel",
    "EDISON",
    "CORI_KNL",
    "LAPTOP",
    "CostModel",
    "PhaseCost",
    "ProcessGrid",
    "SimComm",
    "CommBase",
    "CollectiveError",
    "collectives",
    "backend",
    "make_comm",
]
