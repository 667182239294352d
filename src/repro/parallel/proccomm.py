"""ProcComm — SimComm's two collectives with ranks as real OS processes.

The top layer of :mod:`repro.parallel`: a drop-in communicator for
:class:`~repro.mpisim.comm.SimComm` (selected through
:func:`repro.mpisim.backend.make_comm`), so ``lacc_spmd`` / ``lacc_2d``
and the CombBLAS SpMV layer run unchanged while the data movement of
every ``alltoallv`` and ``allreduce`` executes in forked worker
processes over shared memory.

Semantics are pinned to SimComm's by construction: both inherit the one
body of each collective from :class:`~repro.mpisim.envelope.CommBase`
(validation, words/messages, span, leaf order, the CRC/retry envelope)
and supply only the exchange — here :meth:`_run` on the worker pool.  So
malformed calls raise the same errors before any command is sent, the
α–β model prices both backends identically, and one
:class:`~repro.faults.FaultPlan` seed yields byte-identical fault
schedules, retries and :class:`~repro.faults.CollectiveError`\\ s on
either backend.  What is proc-only:

* **Typed failure, never a hang** — a killed or wedged worker surfaces
  through transport timeouts/liveness probes as a
  :class:`~repro.faults.CollectiveError` (``rank_lost``,
  ``deadline_exceeded`` or ``worker_died``); the broken pool is torn
  down and respawned on the next collective.
* **Real chaos** — an active :mod:`repro.chaos` injector fires its
  process faults in :meth:`_run`, before the physical exchange.

Tracer spans use category ``"proccomm"`` (the ``"simcomm"`` category
stays sim-only so word-accounting consumers know which machine produced
a trace); when a metric registry is active, per-rank transport counters
(bytes/messages/busy-time, labelled by rank) are merged into it at the
root after every collective.
"""

from __future__ import annotations

import os
from typing import List, Optional

import numpy as np

from repro.mpisim.envelope import CommBase, calling_iteration, fail
from repro.obs.tracer import flight_recorder as _freg
from repro.obs.tracer import metrics_registry
from repro.obs.tracer import current as _obs

from .detector import FailureDetector
from .obsband import STEP_TO_CODE, record_rank_events, salvaged_flight_events
from .pool import WorkerDied, get_pool

__all__ = ["ProcComm"]

#: optional per-collective deadline budget, seconds (unset = pool timeout)
_DEADLINE_S: Optional[float] = (
    float(os.environ["REPRO_PROC_DEADLINE"])
    if os.environ.get("REPRO_PROC_DEADLINE")
    else None
)


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
        ``stalled`` ranks means the collective ran out of its deadline
        budget while the worker still exists (``deadline_exceeded``); no
        classified culprit degrades to the legacy ``worker_died``.
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
            # the dead pool's sideband was drained at teardown: replay the
            # salvaged per-rank flight events (a killed rank's last acts,
            # so they precede the failure verdict) into the conductor
            # record for the postmortem
            salvage = getattr(old_pool, "obs_salvage", {})
            record_rank_events(
                fr,
                {r: salvaged_flight_events(m) for r, m in salvage.items()},
                salvaged=True,
            )
        # survivor transport counters were captured just before teardown;
        # merge what reached us and count the rest as unmerged
        self._merge_rank_metrics(old_pool)
        reg = metrics_registry()
        if reg:
            for r in lost:
                reg.counter(
                    "proc_rank_lost_total",
                    "workers classified permanently lost, by rank",
                    rank=str(r),
                ).inc()
        if sp:
            sp.set("worker_died", True)
            sp.set("failure_kinds", ",".join(kinds))
            if lost:
                sp.set("lost_ranks", lost)
            if stalled:
                sp.set("stalled_ranks", stalled)
            if status:
                sp.set("worker_status",
                       ";".join(f"{s.rank}:{s.state}" for s in status))
            if error:
                sp.set("error", error)
        fail(name, 1, kinds, size=self.size, lost=lost, stalled=stalled)

    def _run(self, name: str, sp, fn, *args):
        """Execute one pool collective, translating a dead/wedged worker
        into a typed :class:`~repro.faults.CollectiveError` (never a hang).

        A death is *reported once*: the collective that observes it
        raises, and the communicator heals itself with a fresh pool so
        the next collective (e.g. a supervisor's retry) succeeds.  When a
        chaos injector is active (:mod:`repro.chaos`) its scheduled
        process faults fire here, before the physical exchange — the real
        counterpart of the simulator's envelope hook.
        """
        pool = self._pool
        from repro.chaos.injector import active_injector

        inj = active_injector()
        if inj is not None:
            inj.fire_proc(name, pool)
        if not pool.alive():
            status = pool.detector.snapshot()
            try:  # survivor counters die with the pool; grab them first
                pool.stats_salvage = pool.stats_survivors(timeout=0.5)
            except Exception:
                pass
            pool.mark_broken()
            self._fail(name, sp, status)
        if pool.obsband is not None:
            # stamp the driver coordinates (iteration, enclosing step
            # span) into the command frame so workers tag their spans and
            # flight events with where-in-the-algorithm they served
            it = calling_iteration()
            st = _obs().innermost(cat="step")
            pool.set_coords(
                -1 if it is None else int(it),
                STEP_TO_CODE.get(st.name, 0) if st is not None else 0,
            )
        deadline = _DEADLINE_S
        if inj is not None and inj.deadline_s is not None:
            deadline = (
                inj.deadline_s if deadline is None
                else min(deadline, inj.deadline_s)
            )
        try:
            with pool.deadline(deadline):
                out = fn(pool, *args)
        except WorkerDied as exc:
            self._fail(name, sp, getattr(exc, "status", ()), error=str(exc))
        self._merge_rank_metrics(pool)
        return out

    def _merge_rank_metrics(self, pool) -> None:
        """Fold per-rank transport counters into the active registry (a
        no-op — no extra round-trip — when metrics are off).

        Partial by design: a dead worker must not cost the survivors
        their counters.  On a live pool every rank is queried with a
        per-rank timeout; on a broken pool the rows captured just before
        teardown (``stats_salvage``) are used.  Ranks that could not be
        reached either way are recorded under the
        ``proccomm_ranks_unmerged`` counter instead of silently dropped.
        """
        reg = metrics_registry()
        if not reg:
            return
        if pool.broken or not pool.alive():
            got, _ = getattr(pool, "stats_salvage", ({}, []))
        else:
            try:
                got, _ = pool.stats_survivors(timeout=pool.timeout)
            except Exception:
                got = {}
        for row in got.values():
            rank = str(int(row[5]))
            reg.gauge("proc_rank_bytes_sent", "payload bytes sent by rank",
                      rank=rank).set(int(row[0]))
            reg.gauge("proc_rank_bytes_received", "payload bytes received by rank",
                      rank=rank).set(int(row[1]))
            reg.gauge("proc_rank_messages_sent", "messages sent by rank",
                      rank=rank).set(int(row[2]))
            reg.gauge("proc_rank_messages_received", "messages received by rank",
                      rank=rank).set(int(row[3]))
            reg.gauge("proc_rank_busy_seconds", "transport busy seconds of rank",
                      rank=rank).set(int(row[4]) / 1e6)
        for r in range(pool.size):
            if r not in got:
                reg.counter(
                    "proccomm_ranks_unmerged",
                    "ranks whose transport counters could not be merged "
                    "(died or unreachable at merge time)",
                    rank=str(r),
                ).inc()

    # ------------------------------------------------------------------
    # the exchanges; CommBase runs everything around them
    # ------------------------------------------------------------------
    def _exchange_alltoallv(self, sp, send) -> List[List[np.ndarray]]:
        return self._run("alltoallv", sp, lambda p: p.alltoallv(send))

    def _exchange_allreduce(self, sp, arrs, op) -> List[np.ndarray]:
        return self._run("allreduce", sp, lambda p: p.allreduce(arrs, op))

    # restated here, not inherited, so the per-layer timers of
    # benchmarks/e2e/layers.py can wrap ProcComm's collectives alone
    def alltoallv(self, send):
        return super().alltoallv(send)

    def allreduce(self, bufs, op):
        return super().allreduce(bufs, op)
