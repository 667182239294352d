"""SimComm — a functional simulated communicator that *actually moves
data* between per-rank NumPy buffers.

The cost-accounted scaling sweeps use the analytic formulas in
:mod:`repro.mpisim.collectives`; this module provides the semantic ground
truth those formulas price.  A :class:`SimComm` holds no processes — its
two collectives, ``alltoallv`` and ``allreduce`` (the ones LACC's
distributed drivers run), are pure functions from per-rank send buffers
to per-rank receive buffers.  Their one body — validation, traffic
accounting, span and fault delivery — lives on
:class:`~repro.mpisim.envelope.CommBase`; SimComm supplies the in-process
exchange.  (:class:`repro.parallel.ProcComm` supplies the same exchange
with ranks as real OS processes; :func:`repro.mpisim.backend.make_comm`
selects between them.)

Every collective reports into the active :mod:`repro.obs` tracer
(category ``"simcomm"``): total words that crossed rank boundaries,
message count, and — for ``alltoallv`` — the full per-rank send/recv word
matrices, which is the per-rank imbalance diagnostic of Figure 3.

Fault injection
---------------
A :class:`~repro.faults.FaultPlan` passed at construction makes the
network imperfect: delivered buffers can be truncated, corrupted,
duplicated or zeroed, collectives can straggle or fail outright.  Every
delivery then runs through a **retry-with-validation envelope**
(:func:`repro.mpisim.envelope.fault_envelope`, shared with the
real-process backend and the analytic collectives): payloads are checksummed at the sender, validated at the
receiver, and damaged deliveries are retransmitted with exponential
backoff (priced in simulated time — through the attached
:class:`~repro.mpisim.costmodel.CostModel` when one is given).  Transient
faults therefore recover transparently; permanent faults exhaust the
bounded retries and raise a typed
:class:`~repro.faults.CollectiveError` instead of ever returning wrong
data.  The plan's process faults (``kill`` / ``exit`` / ``frame`` /
``stop``) are modeled in the exchange, before any delivery, as the
typed errors the real faults produce on the proc backend.

Used by the distributed-LACC drivers and validation tests, the
differential fault harness and the ``examples/simulated_cluster.py``
walk-through.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .envelope import CommBase, fail

__all__ = ["SimComm"]


class SimComm(CommBase):
    """A world of *p* simulated ranks with contiguous ids ``0..p-1``.

    Both collectives take one entry per rank, ordered by rank id, and
    return one result per rank, performing the same data movement their
    MPI counterparts would.  Constructor parameters (``size`` /
    ``faults`` / ``cost``) are documented on
    :class:`repro.mpisim.envelope.CommBase`.
    """

    def _model_process_faults(self, call) -> None:
        """Raise the typed error the process faults *call* drew produce on
        the proc backend: ``kill``/``exit`` lose the victim
        (``rank_lost``), ``frame`` fails the pool (``worker_died``).  A
        ``stop`` straggler only costs wall-clock, which the simulator does
        not model, so the collective completes."""
        hits = self._process_faults(call)
        lost = [victim for rule, victim in hits if rule.kind in ("kill", "exit")]
        if lost:
            fail(call.collective, 1, ["rank_lost"], size=self.size, lost=lost)
        if any(rule.kind == "frame" for rule, _ in hits):
            fail(call.collective, 1, ["worker_died"], lost=[])

    def _exchange_alltoallv(self, sp, send, call) -> List[List[np.ndarray]]:
        self._model_process_faults(call)
        p = self.size
        return [[np.asarray(send[i][j]).copy() for i in range(p)] for j in range(p)]

    def _exchange_allreduce(self, sp, arrs, op, call) -> List[np.ndarray]:
        self._model_process_faults(call)
        total = arrs[0]
        for a in arrs[1:]:
            total = op(total, a)
        return [total.copy() for _ in range(self.size)]
