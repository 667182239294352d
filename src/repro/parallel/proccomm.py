"""ProcComm — SimComm's two collectives with ranks as real OS processes.

The top layer of :mod:`repro.parallel`: a drop-in communicator for
:class:`~repro.mpisim.comm.SimComm` (selected through
:func:`repro.mpisim.backend.make_comm`), so ``lacc_spmd`` / ``lacc_2d``
and the CombBLAS SpMV layer run unchanged while the data movement of
every ``alltoallv`` and ``allreduce`` executes in forked worker
processes over shared memory.  Only off-rank bytes move: an
``alltoallv``'s self-messages stay on the conductor (see
:meth:`~repro.parallel.pool.WorkerPool.alltoallv`).

Semantics are pinned to SimComm's by construction: both inherit the one
body of each collective from :class:`~repro.mpisim.envelope.CommBase`
(validation, words/messages, span, the one fault draw, leaf order, the
CRC/retry envelope) and supply only the exchange — here :meth:`_run` on
the worker pool.  So malformed calls raise the same errors before any
command is sent, the α–β model prices both backends identically, and one
:class:`~repro.faults.FaultPlan` seed yields byte-identical fault
schedules, retries and :class:`~repro.faults.CollectiveError`\\ s on
either backend.  What is proc-only:

* **Typed failure, never a hang** — a killed or wedged worker surfaces
  through transport timeouts/liveness probes as a
  :class:`~repro.faults.CollectiveError` (``rank_lost``,
  ``deadline_exceeded`` or ``worker_died``); the broken pool is torn
  down and respawned on the next collective.
* **Real process faults** — the process faults of the collective's
  drawn call (``kill`` / ``stop`` / ``exit`` / ``frame``) are delivered
  to the pool's workers in :meth:`_run`, before the physical exchange.

Tracer spans use category ``"proccomm"`` (the ``"simcomm"`` category
stays sim-only so word-accounting consumers know which machine produced
a trace).  The workers' transport counters
(:meth:`~repro.parallel.pool.WorkerPool.stats`) cover only bytes that
leave a rank, so self-messages add nothing to them.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.mpisim.envelope import CommBase, calling_iteration, fail
from repro.obs.tracer import flight_recorder as _freg
from repro.obs.tracer import current as _obs

from .detector import FailureDetector
from .obsband import STEP_TO_CODE, record_rank_events, salvaged_flight_events
from .pool import WorkerDied, get_pool

__all__ = ["ProcComm"]


class ProcComm(CommBase):
    """A world of *p* ranks, each a live worker process (see
    :class:`~repro.parallel.pool.WorkerPool`).

    Same constructor contract as :class:`~repro.mpisim.comm.SimComm`;
    the underlying pool is cached per size and shared by every ProcComm
    of that size in the process.
    """

    category = "proccomm"

    def __init__(self, size, faults=None, cost=None):
        super().__init__(size, faults=faults, cost=cost)
        self._pool = get_pool(self.size)

    # ------------------------------------------------------------------
    def _fail(self, name: str, sp, status, error: Optional[str] = None):
        """Translate a classified worker failure into the typed
        :class:`~repro.faults.CollectiveError` the recovery supervisor
        dispatches on (raised through the shared
        :func:`~repro.mpisim.envelope.fail` exit), healing the
        communicator with a fresh pool first.

        Classification → error kind: any ``dead`` rank means the loss is
        permanent (``rank_lost``, retry cannot help, shrink can); only
        ``stalled`` ranks means the collective ran out of the pool's
        round-trip budget (``REPRO_PROC_TIMEOUT``) while the worker still
        exists (``deadline_exceeded``); no classified culprit degrades to
        the legacy ``worker_died``.
        """
        lost = FailureDetector.dead_ranks(status) if status else []
        stalled = FailureDetector.stalled_ranks(status) if status else []
        if lost:
            kinds = ["rank_lost"]
        elif stalled:
            kinds = ["deadline_exceeded"]
        else:
            kinds = ["worker_died"]
        old_pool = self._pool  # holds the dead run's salvage after teardown
        self._pool = get_pool(self.size)
        fr = _freg()
        if fr:
            # the dead pool's obs frames were salvaged at teardown: replay the
            # salvaged per-rank flight events (a killed rank's last acts,
            # so they precede the failure verdict) into the conductor
            # record for the postmortem
            salvage = getattr(old_pool, "obs_salvage", {})
            record_rank_events(
                fr,
                {r: salvaged_flight_events(m) for r, m in salvage.items()},
                salvaged=True,
            )
        if sp:
            sp.set("worker_died", True)
            if lost:
                sp.set("lost_ranks", lost)
            if stalled:
                sp.set("stalled_ranks", stalled)
            if error:
                sp.set("error", error)
        fail(name, 1, kinds, size=self.size, lost=lost, stalled=stalled)

    def _run(self, name: str, sp, call, fn, *args):
        """Execute one pool collective, translating a dead/wedged worker
        into a typed :class:`~repro.faults.CollectiveError` (never a hang).

        A death is *reported once*: the collective that observes it
        raises, and the communicator heals itself with a fresh pool so
        the next collective (e.g. a supervisor's retry) succeeds.  The
        process faults *call* drew are delivered to the pool here, before
        the physical exchange — the real counterpart of the simulator's
        model of them.
        """
        pool = self._pool
        for rule, victim in self._process_faults(call):
            pool.inject(rule.kind, victim, rule.stall_seconds)
        if not pool.alive():
            status = pool.detector.snapshot()
            pool.mark_broken()
            self._fail(name, sp, status)
        if pool.obs:
            # stamp the driver coordinates (iteration, enclosing step
            # span) into the command frame so workers tag their spans and
            # flight events with where-in-the-algorithm they served
            it = calling_iteration()
            st = _obs().innermost(cat="step")
            pool.set_coords(
                -1 if it is None else int(it),
                STEP_TO_CODE.get(st.name, 0) if st is not None else 0,
            )
        try:
            out = fn(pool, *args)
        except WorkerDied as exc:
            self._fail(name, sp, getattr(exc, "status", ()), error=str(exc))
        return out

    # ------------------------------------------------------------------
    # the exchanges; CommBase runs everything around them
    # ------------------------------------------------------------------
    def _exchange_alltoallv(self, sp, send, call) -> List[List[np.ndarray]]:
        return self._run("alltoallv", sp, call, lambda p: p.alltoallv(send))

    def _exchange_allreduce(self, sp, arrs, op, call) -> List[np.ndarray]:
        return self._run("allreduce", sp, call, lambda p: p.allreduce(arrs, op))

    # restated here, not inherited, so the per-layer timers of
    # benchmarks/e2e/layers.py can wrap ProcComm's collectives alone
    def alltoallv(self, send):
        return super().alltoallv(send)

    def allreduce(self, bufs, op):
        return super().allreduce(bufs, op)
