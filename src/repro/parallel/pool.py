"""Persistent forked worker pools executing collectives over shared memory.

The middle layer of the real-process backend: a :class:`WorkerPool` holds
``size`` long-lived worker OS processes (ranks ``0..size-1``) plus the
parent *conductor* endpoint, all wired through one
:class:`~repro.parallel.shm.ShmTransport`.  It runs the two collectives
LACC needs.  The drivers keep their world-view shape — the conductor
hands each worker its rank's buffers, the workers exchange payloads
**among themselves** over the shared-memory channels (a full pairwise
exchange for ``alltoallv``; for ``allreduce``, rank 0 folds in rank order
and sends the total back), and ship their per-rank results back to the
conductor.

Pools are cached per size (:func:`get_pool`): the SPMD drivers construct
a fresh communicator per run, and forking + handshaking processes per
run would dominate the wall-clock the backend exists to measure.  A pool
whose worker died (crash fault tests kill them deliberately) is marked
broken, torn down, and transparently respawned on next use.

Protocol
--------
Commands travel on the reserved tag ``TAG_CMD`` (0) as ``int64[5]``
frames ``[opcode, seq, arg, iteration, step_code]`` (the last two slots
carry the conductor's driver coordinates for per-rank observability;
control frames may omit them); all data frames of one collective use
its unique ``seq`` as tag, so concurrent state from an aborted
collective can never bleed into the next one.  ``allreduce``'s ``arg``
is the operator's code in the wire table
:data:`~repro.mpisim.envelope.REDUCE_OPS`; no callable crosses the wire.

Fork, not spawn: a live transport (conditions, semaphores, mapped
segments) is inherited, never pickled — see docs/PARALLELISM.md.  The
parent's own drainer thread is started *after* the fork so no lock can
be copied in a held state.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
import warnings
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mpisim.envelope import REDUCE_CODES, REDUCE_OPS

from .detector import TAG_HB, FailureDetector, WorkerStatus, heartbeat_interval
from .obsband import ObsSideband, RankObs, _TracedEndpoint, rank_obs_enabled
from .shm import (
    DEFAULT_CAPACITY,
    ShmTransport,
    TransportError,
    pack_arrays,
    preferred_start_method,
    sweep_leaked_segments,
    unpack_arrays,
)

__all__ = ["WorkerPool", "WorkerDied", "get_pool", "shutdown_pools", "TAG_CMD"]

TAG_CMD = 0

(
    OP_SHUTDOWN,
    OP_PING,
    OP_STATS,
    OP_ALLTOALLV,
    OP_ALLREDUCE,
    OP_CLOCKSYNC,
    OP_OBS,
) = range(7)

#: display names for the opcode-level spans / flight events
_OPCODE_NAMES: Dict[int, str] = {
    OP_ALLTOALLV: "alltoallv",
    OP_ALLREDUCE: "allreduce",
}

#: parent-side wait for any single worker round-trip, seconds
DEFAULT_TIMEOUT_S = float(os.environ.get("REPRO_PROC_TIMEOUT", "60"))


class WorkerDied(TransportError):
    """A worker process died or stopped responding mid-collective.

    Carries the failure detector's classification snapshot (attribute
    :attr:`status`, a tuple of
    :class:`~repro.parallel.detector.WorkerStatus`), taken **before** the
    pool is torn down — teardown kills every worker, so classifying
    afterwards would make everyone look dead.
    """

    status: Tuple[WorkerStatus, ...] = ()


# ----------------------------------------------------------------------
# worker side (runs in the forked children; excluded from coverage
# because the collector only follows the parent process)
# ----------------------------------------------------------------------
def _heartbeat_loop(ep, parent: int, rank: int, interval: float, stop, alive, obs=None) -> None:  # pragma: no cover
    """Worker-side heartbeat: float64 ``[rank, counter, send_monotonic]``
    on :data:`TAG_HB` every *interval* seconds.  The send timestamp is
    ``time.monotonic()`` — system-wide CLOCK_MONOTONIC — so the conductor
    measures staleness from when the worker last ran, not from when the
    frame happened to be drained.

    Heartbeat spans go on the rank's *dedicated* heartbeat tracer (the
    main tracer's LIFO span stack is not thread-safe); they never touch
    the flight record, which must stay deterministic."""
    counter = 0
    while not stop.is_set() and alive():
        span = obs.heartbeat_span(counter) if obs is not None else nullcontext()
        try:
            with span:
                ep.send(
                    parent,
                    TAG_HB,
                    np.array([rank, counter, time.monotonic()], dtype=np.float64),
                    timeout=max(interval, 0.05),
                )
        except TransportError:
            return  # fabric closing down; the worker is exiting anyway
        counter += 1
        stop.wait(interval)


def _worker_main(transport: ShmTransport, rank: int, size: int, obs_channel=None) -> None:  # pragma: no cover
    parent = size  # conductor endpoint id
    ppid0 = os.getppid()
    alive = lambda: os.getppid() == ppid0  # reparenting means the parent died
    ep = transport.endpoint(rank).start()
    obs = RankObs(rank, size, obs_channel) if obs_channel is not None else None
    # collective exchanges go through the traced facade so ring sends and
    # receives become measured comm/wait child spans; control replies and
    # heartbeats use the raw endpoint (no span, no flight event)
    dep = _TracedEndpoint(ep, obs) if obs is not None else ep
    hb_stop = threading.Event()
    hb_interval = heartbeat_interval()
    if hb_interval > 0:
        threading.Thread(
            target=_heartbeat_loop,
            args=(ep, parent, rank, hb_interval, hb_stop, alive, obs),
            name=f"repro-hb-{rank}",
            daemon=True,
        ).start()
    try:
        while True:
            if obs is not None:
                # idle-between-commands is the rank's "not working" time;
                # spanning the blocking recv makes it visible in the lane
                with obs.tracer.span("cmd_wait", "rank"):
                    cmd = ep.recv(parent, TAG_CMD, timeout=None, alive=alive)
            else:
                cmd = ep.recv(parent, TAG_CMD, timeout=None, alive=alive)
            opcode, seq, arg = (int(x) for x in cmd[:3])
            # coordinate slots are optional: int64[3] frames decode as
            # "no iteration / no step"
            it = int(cmd[3]) if cmd.size > 3 else -1
            step_code = int(cmd[4]) if cmd.size > 4 else 0
            if opcode == OP_SHUTDOWN:
                break
            if opcode == OP_PING:
                ep.send(parent, seq, np.array([rank, os.getpid()], dtype=np.int64))
                continue
            if opcode == OP_CLOCKSYNC:
                # the conductor brackets this round-trip with its own
                # monotonic reads to estimate this rank's clock offset
                ep.send(parent, seq, np.array([time.monotonic()], dtype=np.float64))
                continue
            if opcode == OP_OBS:
                if obs is not None:
                    obs.finalize_and_ship()
                continue
            if opcode == OP_STATS:
                ep.send(
                    parent,
                    seq,
                    np.array(
                        [
                            ep.bytes_sent,
                            ep.bytes_received,
                            ep.messages_sent,
                            ep.messages_received,
                            int(ep.busy_seconds * 1e6),
                            rank,
                        ],
                        dtype=np.int64,
                    ),
                )
                continue
            opname = _OPCODE_NAMES.get(opcode)
            if opname is None:
                raise RuntimeError(f"worker {rank}: unknown opcode {opcode}")
            span = (
                obs.collective(opname, it, step_code)
                if obs is not None
                else nullcontext()
            )
            with span:
                if opcode == OP_ALLTOALLV:
                    row = unpack_arrays(dep.recv(parent, seq, alive=alive))
                    for j in range(size):
                        if j != rank:
                            dep.send(j, seq, row[j], alive=alive)
                    got = [
                        np.asarray(row[i]) if i == rank else dep.recv(i, seq, alive=alive)
                        for i in range(size)
                    ]
                    dep.send(parent, seq, pack_arrays(got), alive=alive)
                else:  # OP_ALLREDUCE
                    own = dep.recv(parent, seq, alive=alive)
                    if rank == 0:
                        op = REDUCE_OPS[arg]
                        # reduce in rank order — bit-identical to SimComm's
                        # sequential fold, even for non-commutative floats
                        total = own
                        for i in range(1, size):
                            chunk = dep.recv(i, seq, alive=alive)
                            if obs is not None:
                                with obs.tracer.span("fold", "rank", src=i):
                                    total = op(total, chunk)
                            else:
                                total = op(total, chunk)
                        mine = np.asarray(total)
                        for j in range(1, size):
                            dep.send(j, seq, mine, alive=alive)
                    else:
                        dep.send(0, seq, own, alive=alive)
                        mine = dep.recv(0, seq, alive=alive)
                    dep.send(parent, seq, mine, alive=alive)
    except TransportError:
        pass  # parent shut the fabric down (or died); just exit
    except BaseException:
        import traceback

        traceback.print_exc()
        os._exit(1)
    finally:
        hb_stop.set()
        ep.stop()
    # skip inherited atexit state (pytest capture, coverage hooks)
    os._exit(0)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class WorkerPool:
    """``size`` forked worker processes plus the conductor endpoint."""

    def __init__(
        self,
        size: int,
        capacity: int = DEFAULT_CAPACITY,
        timeout: float = DEFAULT_TIMEOUT_S,
        obs: bool = False,
    ):
        if size < 1:
            raise ValueError("worker pool needs at least one rank")
        self.size = int(size)
        self.timeout = float(timeout)
        self.broken = False
        # reclaim /dev/shm litter from conductors that died without
        # unlink() (SIGKILL, OOM) before allocating our own rings
        try:
            sweep_leaked_segments()
        except OSError:  # pragma: no cover - tmpdir races are non-fatal
            pass
        ctx_method = preferred_start_method()
        import multiprocessing as mp

        ctx = mp.get_context(ctx_method)
        self.transport = ShmTransport(self.size + 1, capacity, ctx)
        # the obs sideband (one extra worker→conductor ring per rank) is
        # only allocated when per-rank observability is on: obs-off pools
        # carry no extra segments and exchange zero sideband bytes
        self.obsband = ObsSideband(ctx, self.size) if obs else None
        #: driver coordinates stamped into command frames (iteration,
        #: step code); -1/0 = outside any iteration/step
        self._coords: Tuple[int, int] = (-1, 0)
        #: per-rank worker-clock minus conductor-clock offsets (seconds),
        #: measured by the clock-sync handshake; empty when obs is off
        self.clock_offsets: Dict[int, float] = {}
        #: sideband frames salvaged from dead/closing workers at teardown
        self.obs_salvage: Dict[int, List[dict]] = {}
        #: survivor stats captured by :meth:`_died` just before teardown
        self.stats_salvage: Tuple[Dict[int, np.ndarray], List[int]] = ({}, [])
        self._seq = 0
        self.procs = []
        for rank in range(self.size):
            p = ctx.Process(
                target=_worker_main,
                args=(
                    self.transport,
                    rank,
                    self.size,
                    self.obsband.channels[rank] if obs else None,
                ),
                name=f"repro-rank-{rank}",
                daemon=True,
            )
            with warnings.catch_warnings():
                # 3.12 warns on fork-from-threaded; our locks are provably
                # unheld at fork time (the parent drainer starts below)
                warnings.simplefilter("ignore", DeprecationWarning)
                p.start()
            self.procs.append(p)
        # start the conductor's drainer only now: forking with a live
        # drainer could copy a held channel lock into a child
        self.ep = self.transport.endpoint(self.size).start()
        self.detector = FailureDetector(self)
        try:
            self.ping(timeout=max(self.timeout, 10.0))
            if obs:
                self.clock_offsets = self._clock_sync()
        except TransportError as exc:
            self.close()
            raise WorkerDied(f"worker pool of {size} failed to start") from exc

    # -- liveness ------------------------------------------------------
    def alive(self) -> bool:
        return not self.broken and all(p.is_alive() for p in self.procs)

    def _workers_alive(self) -> bool:
        return all(p.is_alive() for p in self.procs)

    def mark_broken(self) -> None:
        self.broken = True
        self.close()

    # -- protocol helpers ----------------------------------------------
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _died(self, message: str, exc: TransportError) -> WorkerDied:
        """Build a classified :class:`WorkerDied`.  The detector snapshot
        MUST be taken before :meth:`mark_broken`: teardown terminates
        every worker, which would turn any classification into
        'all dead'."""
        status = self.detector.snapshot()
        # last chance to read survivor counters: teardown below kills
        # every worker.  Ranks wedged inside the aborted collective will
        # not answer within the short budget — they count as unreached.
        try:
            self.stats_salvage = self.stats_survivors(timeout=0.5)
        except Exception:  # pragma: no cover - salvage must never mask death
            pass
        self.mark_broken()
        err = WorkerDied(message)
        err.status = status
        return err

    def _send(self, rank: int, tag: int, arr: np.ndarray) -> None:
        try:
            self.ep.send(
                rank, tag, arr, timeout=self.timeout, alive=self._workers_alive
            )
        except TransportError as exc:
            raise self._died(f"send to rank {rank} failed: {exc}", exc) from exc

    def _recv(self, rank: int, tag: int, timeout: Optional[float] = None) -> np.ndarray:
        try:
            return self.ep.recv(
                rank,
                tag,
                timeout=self.timeout if timeout is None else timeout,
                alive=self._workers_alive,
            )
        except TransportError as exc:
            raise self._died(f"no reply from rank {rank}: {exc}", exc) from exc

    def set_coords(self, iteration: int = -1, step_code: int = 0) -> None:
        """Stamp driver coordinates into subsequent command frames so
        workers can tag their spans/flight events with the iteration and
        step they serve (codes from
        :data:`~repro.parallel.obsband.STEP_CODES`)."""
        self._coords = (int(iteration), int(step_code))

    def _command(self, opcode: int, arg: int = 0) -> int:
        self.detector.poll()  # keep heartbeat ledger fresh, never blocks
        seq = self._next_seq()
        it, step_code = self._coords
        cmd = np.array([opcode, seq, arg, it, step_code], dtype=np.int64)
        for r in range(self.size):
            self._send(r, TAG_CMD, cmd)
        return seq

    def _clock_sync(self, rounds: int = 5) -> Dict[int, float]:
        """Handshake-measure each worker's ``time.monotonic()`` offset.

        Per rank: *rounds* bracketed round-trips; the sample at minimum
        RTT gives ``offset = t_worker - (t0 + t1) / 2`` (the midpoint
        estimate, exact for symmetric transit).  Subtracting the offset
        from worker timestamps puts them on the conductor's timeline.
        CLOCK_MONOTONIC is system-wide on Linux, so offsets are near
        zero — the sync exists to *verify* that and to keep the merge
        correct on platforms where per-process clocks diverge.
        """
        offsets: Dict[int, float] = {}
        for r in range(self.size):
            best_rtt, best_off = float("inf"), 0.0
            for _ in range(rounds):
                seq = self._next_seq()
                cmd = np.array([OP_CLOCKSYNC, seq, 0], dtype=np.int64)
                t0 = time.monotonic()
                self._send(r, TAG_CMD, cmd)
                t_worker = float(self._recv(r, seq)[0])
                t1 = time.monotonic()
                rtt = t1 - t0
                if rtt < best_rtt:
                    best_rtt, best_off = rtt, t_worker - (t0 + t1) / 2.0
            offsets[r] = best_off
        return offsets

    @contextmanager
    def deadline(self, seconds: Optional[float]):
        """Per-collective deadline budget: every worker round-trip inside
        the block waits at most *seconds* (never more than the pool's own
        timeout), so a stalled worker surfaces as a classified
        :class:`WorkerDied` within the budget instead of after the full
        pool timeout."""
        if seconds is None:
            yield
            return
        prev = self.timeout
        self.timeout = min(prev, float(seconds))
        try:
            yield
        finally:
            self.timeout = prev

    # -- collectives (fault-free data movement; the envelope lives in
    #    ProcComm, which wraps these results) -------------------------
    def ping(self, timeout: Optional[float] = None) -> None:
        seq = self._command(OP_PING)
        for r in range(self.size):
            reply = self._recv(r, seq, timeout=timeout)
            if int(reply[0]) != r:
                raise WorkerDied(f"rank {r} answered ping as {int(reply[0])}")

    def stats(self) -> List[np.ndarray]:
        """Per-rank ``int64[6]`` counters: bytes sent/received, messages
        sent/received, busy microseconds, rank id."""
        seq = self._command(OP_STATS)
        return [self._recv(r, seq) for r in range(self.size)]

    def stats_survivors(
        self, timeout: float = 1.0
    ) -> Tuple[Dict[int, np.ndarray], List[int]]:
        """Best-effort per-rank stats that a dead rank cannot poison.

        Unlike :meth:`stats`, a non-responding rank does **not** tear the
        pool down (``_send``/``_recv`` would mark it broken): each rank is
        queried independently with a short *timeout*, dead processes are
        skipped outright, and the result is ``(survivor_stats,
        unreached_ranks)``.  The metrics merge after a faulty collective
        uses this so survivor counters are kept instead of dropped.
        """
        got: Dict[int, np.ndarray] = {}
        missed: List[int] = []
        for r in range(self.size):
            if not self.procs[r].is_alive():
                missed.append(r)
                continue
            try:
                seq = self._next_seq()
                cmd = np.array([OP_STATS, seq, 0], dtype=np.int64)
                self.ep.send(r, TAG_CMD, cmd, timeout=timeout)
                got[r] = self.ep.recv(r, seq, timeout=timeout)
            except TransportError:
                missed.append(r)
        return got, missed

    def alltoallv(self, send: Sequence[Sequence[np.ndarray]]) -> List[List[np.ndarray]]:
        """Returns ``recv`` with ``recv[j][i]`` = what rank *j* got from *i*."""
        seq = self._command(OP_ALLTOALLV)
        for r in range(self.size):
            self._send(r, seq, pack_arrays([np.asarray(a) for a in send[r]]))
        return [list(unpack_arrays(self._recv(r, seq))) for r in range(self.size)]

    def allreduce(self, bufs: Sequence[np.ndarray], op: Callable) -> List[np.ndarray]:
        """Rank 0 folds in rank order; *op* is one of ``REDUCE_OPS``."""
        seq = self._command(OP_ALLREDUCE, arg=REDUCE_CODES[op])
        for r in range(self.size):
            self._send(r, seq, np.asarray(bufs[r]))
        return [self._recv(r, seq) for r in range(self.size)]

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Idempotent teardown: drain, reap, release shared segments."""
        if getattr(self, "_closed", False):
            return
        self._closed = True
        if not self.broken and all(p.is_alive() for p in self.procs):
            try:
                seq = self._next_seq()
                cmd = np.array([OP_SHUTDOWN, seq, 0], dtype=np.int64)
                for r in range(self.size):
                    self.ep.send(r, TAG_CMD, cmd, timeout=1.0)
            except TransportError:
                pass
        deadline = time.monotonic() + 2.0
        for p in self.procs:
            p.join(timeout=max(0.0, deadline - time.monotonic()))
        for p in self.procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
            if p.is_alive():
                # a SIGSTOPped worker queues SIGTERM until SIGCONT and
                # would survive terminate(); SIGKILL reaps it regardless
                p.kill()
                p.join(timeout=1.0)
        if self.obsband is not None:
            # workers are reaped, so the rings are quiescent: whatever
            # eagerly-streamed frames remain (a killed rank's last flight
            # events) are salvaged before the segments go away
            for r in range(self.size):
                try:
                    msgs, _truncated = self.obsband.drain_ready(r, deadline_s=0.2)
                except Exception:  # pragma: no cover - salvage is best-effort
                    msgs = []
                if msgs:
                    self.obs_salvage[r] = msgs
        self.transport.close()
        self.transport.unlink()
        if self.obsband is not None:
            self.obsband.close()
            self.obsband.unlink()


_POOLS: Dict[Tuple[int, bool], WorkerPool] = {}


def get_pool(size: int) -> WorkerPool:
    """The cached pool for *size* ranks, (re)spawned when absent/broken.

    Pools are keyed by ``(size, obs)`` where *obs* follows
    :func:`~repro.parallel.obsband.rank_obs_enabled`: an instrumented run
    gets a sideband-equipped pool without disturbing the plain cached one
    (and vice versa — obs-off stays a true null path)."""
    obs = rank_obs_enabled()
    key = (size, obs)
    pool = _POOLS.get(key)
    if pool is not None and pool.alive():
        return pool
    if pool is not None:
        pool.close()
        del _POOLS[key]
    pool = WorkerPool(size, obs=obs)
    _POOLS[key] = pool
    return pool


def shutdown_pools() -> None:
    """Close every cached pool (also runs at interpreter exit)."""
    for key in list(_POOLS):
        _POOLS.pop(key).close()


atexit.register(shutdown_pools)
