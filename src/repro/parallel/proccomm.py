"""ProcComm — SimComm's collectives API with ranks as real OS processes.

The top layer of :mod:`repro.parallel`: a drop-in communicator for
:class:`~repro.mpisim.comm.SimComm` (selected through
:func:`repro.mpisim.backend.make_comm`), so ``lacc_spmd`` / ``lacc_2d``
and the CombBLAS SpMV layer run unchanged while every collective's data
movement executes in forked worker processes over shared memory.

Semantics are pinned to SimComm's by construction:

* **Same validation** — both inherit
  :class:`~repro.mpisim.envelope.CommBase`, so malformed calls raise the
  same errors.
* **Same costs** — words/messages per collective use SimComm's exact
  formulas, so the α–β model prices both backends identically.
* **Same fault behaviour** — the physical exchange runs once,
  fault-free, then the result (flattened in SimComm's exact leaf order)
  passes through the shared CRC/retry envelope; one
  :class:`~repro.faults.FaultPlan` seed yields byte-identical fault
  schedules, retries and :class:`~repro.faults.CollectiveError`\\ s on
  either backend.
* **Typed failure, never a hang** — a killed or wedged worker surfaces
  through transport timeouts/liveness probes as a
  :class:`~repro.faults.CollectiveError` with kind ``worker_died``; the
  broken pool is torn down and respawned on the next communicator.

Tracer spans use category ``"proccomm"`` (the ``"simcomm"`` category
stays sim-only so word-accounting consumers know which machine produced
a trace); when a metric registry is active, per-rank transport counters
(bytes/messages/busy-time, labelled by rank) are merged into it at the
root after every collective.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.mpisim.envelope import CommBase, calling_iteration, fail
from repro.obs.tracer import flight_recorder as _freg
from repro.obs.tracer import metrics_registry
from repro.obs.tracer import current as _obs

from .detector import FailureDetector
from .obsband import STEP_TO_CODE, salvaged_flight_events
from .pool import WorkerDied, get_pool

__all__ = ["ProcComm"]

_CAT = "proccomm"

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

    backend = "proc"

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
            # record for the postmortem.  Re-recorded — not spliced — so
            # the conductor's run_meta/seq stay intact.
            for r, msgs in sorted(getattr(old_pool, "obs_salvage", {}).items()):
                for ev in salvaged_flight_events(msgs):
                    extra = {
                        k: v
                        for k, v in ev.data.items()
                        if k not in ("rank", "iteration", "step")
                    }
                    fr.record(
                        "rank_event",
                        rank=ev.rank if ev.rank is not None else r,
                        iteration=ev.iteration,
                        step=ev.step,
                        rank_kind=ev.kind,
                        rank_seq=ev.seq,
                        rank_ts=ev.ts,
                        salvaged=True,
                        **extra,
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
    # collectives — words/messages formulas match SimComm line for line
    # ------------------------------------------------------------------
    def bcast(self, bufs: List[Optional[np.ndarray]], root: int = 0) -> List[np.ndarray]:
        """Every rank receives a copy of the root's buffer."""
        self._check(bufs)
        self._check_root(root)
        with _obs().span("bcast", _CAT, root=root, ranks=self.size) as sp:
            data = np.asarray(bufs[root])
            words = int(data.size) * (self.size - 1)
            messages = self.size - 1
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
            out = self._run("bcast", sp, lambda p: p.bcast(data, root))
            return self._deliver("bcast", out, list, sp, words, messages)

    def allgather(self, bufs: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Every rank receives the concatenation of all buffers."""
        self._check(bufs)
        with _obs().span("allgather", _CAT, ranks=self.size) as sp:
            arrs = [np.asarray(b) for b in bufs]
            words = sum(int(a.size) for a in arrs) * (self.size - 1)
            messages = self.size * (self.size - 1)
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
            res = self._run("allgather", sp, lambda p: p.allgather(arrs))
            return self._deliver("allgather", res, list, sp, words, messages)

    def gather(self, bufs: Sequence[np.ndarray], root: int = 0) -> List[Optional[np.ndarray]]:
        """Root receives the concatenation; others receive ``None``."""
        self._check(bufs)
        self._check_root(root)
        with _obs().span("gather", _CAT, root=root, ranks=self.size) as sp:
            arrs = [np.asarray(b) for b in bufs]
            concat = self._run("gather", sp, lambda p: p.gather(arrs, root))
            out: List[Optional[np.ndarray]] = [None] * self.size
            out[root] = concat
            words = int(concat.size) - int(arrs[root].size)
            messages = self.size - 1
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
            return self._deliver("gather", out, list, sp, words, messages)

    def scatter(self, chunks: Optional[Sequence], root: int = 0) -> List[np.ndarray]:
        """Root's chunks distributed to ranks (contract documented on
        :meth:`repro.mpisim.comm.SimComm.scatter`; both call shapes)."""
        self._check_root(root)
        chunks = self._normalize_scatter_chunks(chunks, root)
        with _obs().span("scatter", _CAT, root=root, ranks=self.size) as sp:
            out = self._run("scatter", sp, lambda p: p.scatter(chunks, root))
            words = sum(int(c.size) for r, c in enumerate(out) if r != root)
            messages = self.size - 1
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
            return self._deliver("scatter", out, list, sp, words, messages)

    def alltoallv(
        self, send: Sequence[Sequence[np.ndarray]]
    ) -> List[List[np.ndarray]]:
        """``send[i][j]`` is what rank *i* sends to rank *j*; the result's
        ``recv[j][i]`` is what rank *j* received from rank *i*."""
        self._check_alltoallv_rows(send)
        with _obs().span("alltoallv", _CAT, ranks=self.size) as sp:
            w = [
                [int(np.asarray(send[i][j]).size) for j in range(self.size)]
                for i in range(self.size)
            ]
            off_diag = [
                w[i][j] for i in range(self.size) for j in range(self.size) if i != j
            ]
            words = sum(off_diag)
            messages = sum(1 for x in off_diag if x > 0)
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
                sp.set("send_words", w)  # send_words[i][j]; recv is transpose
                sp.set("rank_send_totals", [sum(row) for row in w])
                sp.set(
                    "rank_recv_totals",
                    [sum(w[i][j] for i in range(self.size)) for j in range(self.size)],
                )
            rows = self._run("alltoallv", sp, lambda p: p.alltoallv(send))
            # flatten destination-major — SimComm's exact leaf order, so
            # one fault seed damages the same buffer on both backends
            flat = [rows[j][i] for j in range(self.size) for i in range(self.size)]

            def rebuild(leaves):
                p = self.size
                return [list(leaves[j * p : (j + 1) * p]) for j in range(p)]

            return self._deliver("alltoallv", flat, rebuild, sp, words, messages)

    def reduce_scatter_block(
        self, bufs: Sequence[np.ndarray], op: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> List[np.ndarray]:
        """Element-wise reduce all equal-length buffers then split the
        result into *p* contiguous blocks, block *i* to rank *i*."""
        self._check(bufs)
        arrs = [np.asarray(b) for b in bufs]
        length = self._check_reduce_bufs(arrs, block=True)
        with _obs().span("reduce_scatter", _CAT, ranks=self.size) as sp:
            words = int(length) * (self.size - 1)
            messages = self.size * (self.size - 1)
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
            out = self._run(
                "reduce_scatter", sp, lambda p: p.reduce(arrs, op, "reduce_scatter")
            )
            return self._deliver("reduce_scatter", out, list, sp, words, messages)

    def allreduce(
        self, bufs: Sequence[np.ndarray], op: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> List[np.ndarray]:
        """Element-wise reduction visible on every rank."""
        self._check(bufs)
        with _obs().span("allreduce", _CAT, ranks=self.size) as sp:
            arrs = [np.asarray(b) for b in bufs]
            words = int(arrs[0].size) * 2 * (self.size - 1)
            messages = 2 * self.size * (self.size - 1)
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
            out = self._run("allreduce", sp, lambda p: p.reduce(arrs, op, "allreduce"))
            return self._deliver("allreduce", out, list, sp, words, messages)
