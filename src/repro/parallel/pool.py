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
conductor.  Only off-rank bytes travel: an ``alltoallv``'s diagonal stays
on the conductor, which returns its own copy of ``send[r][r]``.

Pools are cached per size (:func:`get_pool`): the SPMD drivers construct
a fresh communicator per run, and forking + handshaking processes per
run would dominate the wall-clock the backend exists to measure.  A pool
whose worker died (crash fault tests kill them deliberately) is marked
broken, torn down, and transparently respawned on next use.
:meth:`WorkerPool.inject` delivers a fault plan's process faults to the
pool's own workers (SIGKILL, SIGTERM, SIGSTOP with a timed SIGCONT, or a
corrupt frame header in a ring); teardown resumes any stopped worker.

Protocol
--------
Commands travel on the reserved tag ``TAG_CMD`` (0), one frame per
worker per command: the ``int64[5]`` head ``[opcode, seq, arg, iteration,
step_code]`` (the last two slots carry the conductor's driver
coordinates for per-rank observability), followed for a collective by
the rank's input row packed with :func:`~repro.parallel.shm.pack_arrays`
(``None`` in the worker's own ``alltoallv`` slot).  All other frames of
one collective use its unique ``seq`` as tag, so concurrent state from
an aborted collective can never bleed into the next one.  Workers send
their heartbeats (``TAG_HB``, -1) and, under per-rank obs, their obs
frames (``TAG_OBS``, -2) to the conductor on reserved negative tags.
``allreduce``'s ``arg`` is the operator's code in the wire table
:data:`~repro.mpisim.envelope.REDUCE_OPS`; no callable crosses the wire.

Fork, not spawn: a live transport (conditions, semaphores, mapped
segments) is inherited, never pickled — see docs/PARALLELISM.md.  The
parent's own drainer thread is started *after* the fork so no lock can
be copied in a held state.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import time
import warnings
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mpisim.envelope import REDUCE_CODES, REDUCE_OPS

from .detector import TAG_HB, FailureDetector, WorkerStatus, heartbeat_interval
from .obsband import TAG_OBS, RankObs, _TracedEndpoint, _obs_frame, rank_obs_enabled
from .shm import (
    DEFAULT_CAPACITY,
    HEADER_BYTES,
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
    OP_OBS,
) = range(6)

#: display names for the opcode-level spans / flight events
_OPCODE_NAMES: Dict[int, str] = {
    OP_ALLTOALLV: "alltoallv",
    OP_ALLREDUCE: "allreduce",
}

#: int64 words of a command frame's head: opcode, seq, arg, iteration,
#: step code
_CMD_WORDS = 5


def _frame(opcode: int, seq: int, arg: int = 0, coords=(-1, 0), row=None) -> np.ndarray:
    """One command frame: the ``int64[5]`` head ``[opcode, seq, arg,
    iteration, step_code]``, followed by the packed *row* (a list of
    arrays, see :func:`~repro.parallel.shm.pack_arrays`) when the
    command carries one."""
    head = (opcode, seq, arg, *coords)
    if row is None:
        return np.array(head, dtype=np.int64)
    return pack_arrays(row, head=head).view(np.int64)


#: parent-side wait for any single worker round-trip, seconds
DEFAULT_TIMEOUT_S = float(os.environ.get("REPRO_PROC_TIMEOUT", "60"))

#: how long :meth:`WorkerPool.inject` waits for a SIGKILLed/SIGTERMed
#: worker to disappear (the kernel reaps asynchronously; classification
#: must not race ahead of the death it caused)
_REAP_WAIT_S = 2.0

#: the signal each process-fault kind sends (``frame`` sends none)
_FAULT_SIGNALS = {"kill": signal.SIGKILL, "exit": signal.SIGTERM, "stop": signal.SIGSTOP}


def _resume(pid: int) -> None:
    """SIGCONT a stopped worker; a worker already gone is not an error."""
    try:
        os.kill(pid, signal.SIGCONT)
    except OSError:
        pass


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


def _worker_main(transport: ShmTransport, rank: int, size: int, obs: bool = False) -> None:  # pragma: no cover
    parent = size  # conductor endpoint id
    ppid0 = os.getppid()
    alive = lambda: os.getppid() == ppid0  # reparenting means the parent died
    ep = transport.endpoint(rank).start()
    obs = RankObs(rank, size, ep, alive) if obs else None
    # collective exchanges go through the traced facade so ring sends and
    # receives become measured comm/wait child spans; control replies,
    # heartbeats and obs frames use the raw endpoint (no span, no flight
    # event)
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
            opcode, seq, arg, it, step_code = (int(x) for x in cmd[:_CMD_WORDS])
            if opcode == OP_SHUTDOWN:
                break
            if opcode == OP_PING:
                ep.send(parent, seq, np.array([rank, os.getpid()], dtype=np.int64))
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
                # the collective's input row rode in the command frame
                row = unpack_arrays(cmd[_CMD_WORDS:])
                if opcode == OP_ALLTOALLV:
                    # row[rank] is None: the diagonal stays on the conductor
                    for j in range(size):
                        if j != rank:
                            dep.send(j, seq, row[j], alive=alive)
                    got = [
                        None if i == rank else dep.recv(i, seq, alive=alive)
                        for i in range(size)
                    ]
                    dep.send(parent, seq, pack_arrays(got), alive=alive)
                else:  # OP_ALLREDUCE
                    (own,) = row
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
        #: SIGCONT timers of workers a ``stop`` fault froze
        self._stalls: List[threading.Timer] = []
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
        #: whether the workers build obs instruments and send obs frames
        #: (on ``TAG_OBS``); obs-off workers build none and send none
        self.obs = bool(obs)
        #: driver coordinates stamped into command frames (iteration,
        #: step code); -1/0 = outside any iteration/step
        self._coords: Tuple[int, int] = (-1, 0)
        #: obs frames salvaged from dead/closing workers at teardown
        self.obs_salvage: Dict[int, List[dict]] = {}
        self._seq = 0
        self.procs = []
        for rank in range(self.size):
            p = ctx.Process(
                target=_worker_main,
                args=(self.transport, rank, self.size, self.obs),
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

    def _command(self, opcode: int, arg: int = 0, rows=None) -> int:
        """Send every worker one command frame; worker *r*'s carries
        ``rows[r]`` when *rows* is given."""
        self.detector.poll()  # keep heartbeat ledger fresh, never blocks
        seq = self._next_seq()
        for r in range(self.size):
            row = None if rows is None else rows[r]
            self._send(r, TAG_CMD, _frame(opcode, seq, arg, self._coords, row))
        return seq

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

    def alltoallv(self, send: Sequence[Sequence[np.ndarray]]) -> List[List[np.ndarray]]:
        """Returns ``recv`` with ``recv[j][i]`` = what rank *j* got from *i*.

        Only off-rank buffers travel: worker *r* gets ``None`` in its own
        slot and returns ``None`` there, and ``recv[r][r]`` is the
        conductor's own copy of ``send[r][r]``, SimComm's expression."""
        p = self.size
        seq = self._command(
            OP_ALLTOALLV,
            rows=[[None if j == r else send[r][j] for j in range(p)] for r in range(p)],
        )
        recv = []
        for r in range(p):
            row = unpack_arrays(self._recv(r, seq))
            row[r] = np.asarray(send[r][r]).copy()
            recv.append(row)
        return recv

    def allreduce(self, bufs: Sequence[np.ndarray], op: Callable) -> List[np.ndarray]:
        """Rank 0 folds in rank order; *op* is one of ``REDUCE_OPS``."""
        seq = self._command(OP_ALLREDUCE, arg=REDUCE_CODES[op], rows=[[b] for b in bufs])
        return [self._recv(r, seq) for r in range(self.size)]

    # -- process faults ------------------------------------------------
    def inject(self, kind: str, rank: int, stall_seconds: float) -> None:
        """Deliver one process fault to worker *rank*: ``kill`` (SIGKILL)
        and ``exit`` (SIGTERM) return once the worker is gone, ``stop``
        (SIGSTOP) arms a timer that resumes it *stall_seconds* later, and
        ``frame`` appends a garbage frame header to its ring to the
        conductor, whose drainer sees the bad magic and fails typed."""
        if kind == "frame":
            head = np.zeros(HEADER_BYTES // 8, dtype=np.int64)
            head[0] = 0x0DDBA11  # anything but the frame magic
            try:
                self.transport.channel(rank, self.size).write_bytes(
                    head.tobytes(), deadline=time.monotonic() + 1.0)
                self.transport.doorbell(self.size).release()
            except TransportError:  # pragma: no cover - ring full/closed
                pass
            return
        proc = self.procs[rank]
        try:
            os.kill(proc.pid, _FAULT_SIGNALS[kind])
        except OSError:
            return  # already gone
        if kind == "stop":
            timer = threading.Timer(stall_seconds, _resume, (proc.pid,))
            timer.daemon = True
            timer.start()
            self._stalls.append(timer)
            return
        deadline = time.monotonic() + _REAP_WAIT_S
        while proc.is_alive() and time.monotonic() < deadline:
            time.sleep(0.005)

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Idempotent teardown: resume stopped workers, drain, reap,
        release shared segments."""
        if getattr(self, "_closed", False):
            return
        self._closed = True
        for timer in self._stalls:
            timer.cancel()
            _resume(*timer.args)
        if not self.broken and all(p.is_alive() for p in self.procs):
            try:
                cmd = _frame(OP_SHUTDOWN, self._next_seq())
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
        if self.obs:
            # the obs frames still queued (a killed rank's last flight
            # events) are salvaged before the fabric goes away.  A rank's
            # flight event precedes its reply on the same FIFO channel,
            # so every event of a collective the conductor saw answered
            # is already queued
            for r in range(self.size):
                msgs = []
                while (frame := self.ep.try_recv(r, TAG_OBS)) is not None:
                    msgs.append(_obs_frame(frame))
                if msgs:
                    self.obs_salvage[r] = msgs
        self.transport.close()
        self.transport.unlink()


_POOLS: Dict[Tuple[int, bool], WorkerPool] = {}


def get_pool(size: int) -> WorkerPool:
    """The cached pool for *size* ranks, (re)spawned when absent/broken.

    Pools are keyed by ``(size, obs)`` where *obs* follows
    :func:`~repro.parallel.obsband.rank_obs_enabled`: an instrumented run
    gets a pool whose workers build obs instruments without disturbing
    the plain cached one (and vice versa — obs-off stays a true null
    path)."""
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
