"""Per-rank observability for the real-process backend.

The conductor-side obs stack (:mod:`repro.obs`) only ever saw the parent
process: the forked workers of :class:`~repro.parallel.pool.WorkerPool`
executed every collective exchange invisibly.  This module closes that
gap with a **shm obs sideband**: one extra directed byte ring per rank
(worker → conductor, separate from the data fabric so obs traffic can
never reorder or stall a collective), over which each worker ships

* a per-rank :class:`~repro.obs.tracer.Tracer` — opcode-level spans
  around every collective exchange, with ``ring_send`` / ``ring_recv`` /
  ``fold`` child spans so compute/comm/wait attribution is *measured*,
  plus a second tracer for the heartbeat thread (exported as ``tid=1``
  of the rank's pid lane);
* a per-rank :class:`~repro.obs.flight.FlightRecorder` whose events are
  **streamed eagerly** (frame-per-event), so a SIGKILLed rank's last
  events survive in the ring for the conductor's chaos postmortem
  (:meth:`ObsSideband.drain_ready`, wired into ``WorkerPool.close``).

Wire protocol
-------------
Each sideband frame is ``8-byte little-endian length + JSON payload``.
Workers write eagerly-streamed frames only when the whole frame fits in
the ring's free space (single-producer, so the check cannot race) —
frames are therefore atomic and a reader never blocks on a half-written
eager frame; frames that do not fit are dropped and counted.  The
``finalize`` dump at the end of a run may exceed the ring and streams
under a deadline while the conductor concurrently drains.

Determinism
-----------
Per-rank flight records are **byte-identical across same-seed runs**:
the worker recorder's clock is the rank's collective-call counter (not
wall time), its ``run_id`` is ``rank-<r>``, and no event carries a PID,
wall timestamp, or heartbeat-derived (time-driven) quantity.  Tracer
spans, by contrast, use real ``time.monotonic()`` — they exist to
measure — and are aligned onto the conductor's monotonic timeline with
the pool's handshake-measured per-rank clock offset.

Obs-off is a true null path: :func:`rank_obs_enabled` gates sideband
*creation* in the pool (cache key ``(size, obs)``), so a plain proc run
allocates no extra segments and sends zero sideband bytes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.flight import FlightEvent, FlightRecorder, merge_flight_events
from repro.obs.tracer import Tracer

from .shm import TransportError, _Channel, _register_segments

__all__ = [
    "OBS_CAPACITY",
    "STEP_CODES",
    "STEP_TO_CODE",
    "rank_obs_enabled",
    "enable_rank_obs",
    "ObsSideband",
    "RankObs",
    "RankObsResult",
    "collect_rank_obs",
    "drain_active_obs_pools",
    "merged_chrome_trace",
]

#: sideband ring bytes per rank — flight events are ~200 B frames, so
#: this holds thousands of eagerly-streamed events between drains
OBS_CAPACITY = 1 << 20

#: largest sideband frame a reader will believe; a length prefix beyond
#: this means a torn/corrupt stream, not a real frame
_MAX_FRAME = 64 << 20

#: wire codes for the driver step a collective runs under (command frames
#: carry them in slot 5; 0 = outside any step span)
STEP_CODES: Dict[int, Optional[str]] = {
    0: None,
    1: "starcheck",
    2: "cond_hook",
    3: "uncond_hook",
    4: "shortcut",
    5: "convergence",
}
STEP_TO_CODE: Dict[str, int] = {v: k for k, v in STEP_CODES.items() if v}


# ----------------------------------------------------------------------
# activation toggle (same module-global idiom as tracer/flight)
# ----------------------------------------------------------------------
_RANK_OBS = False


def rank_obs_enabled() -> bool:
    """Whether new pools should carry the obs sideband."""
    return _RANK_OBS


@contextmanager
def enable_rank_obs(on: bool = True):
    """Scope per-rank observability on (or explicitly off).

    Pools are cached by ``(size, obs)``, so entering this context and
    calling :func:`~repro.parallel.pool.get_pool` yields an instrumented
    pool without disturbing any cached plain pool.
    """
    global _RANK_OBS
    prev = _RANK_OBS
    _RANK_OBS = bool(on)
    try:
        yield
    finally:
        _RANK_OBS = prev


# ----------------------------------------------------------------------
# the sideband fabric
# ----------------------------------------------------------------------
class ObsSideband:
    """Per-rank worker→conductor byte rings for obs traffic.

    Created by the pool (conductor) before forking; workers inherit their
    ring through ``fork`` exactly like the data fabric.  Framing and
    draining helpers live here so the pool stays protocol-agnostic.
    """

    def __init__(self, ctx, nranks: int):
        token = os.urandom(4).hex()
        self.nranks = int(nranks)
        self.channels: List[_Channel] = [
            _Channel(ctx, OBS_CAPACITY, name=f"rp{token}obs{r}") for r in range(nranks)
        ]
        # same leak registry as the data fabric: orphaned sideband
        # segments are attributable and sweepable after an abnormal exit
        self._registry_path = _register_segments(
            token, [ch._shm.name for ch in self.channels]
        )

    # -- reading (conductor side) --------------------------------------
    def _read_frame(self, ch: _Channel, deadline: Optional[float]) -> Optional[dict]:
        raw = ch.read_bytes(8, deadline=deadline)
        n = int.from_bytes(raw, "little")
        if not 0 < n <= _MAX_FRAME:
            raise TransportError(f"obs sideband: implausible frame length {n}")
        blob = ch.read_bytes(n, deadline=deadline)
        return json.loads(blob)

    def drain_ready(
        self, rank: int, deadline_s: float = 0.5
    ) -> Tuple[List[dict], bool]:
        """Read every complete frame already in rank *rank*'s ring.

        Returns ``(messages, truncated)``; *truncated* means the stream
        ended mid-frame (a worker died mid-write) and the tail was
        discarded.  Used by pool teardown to salvage a dead rank's last
        eagerly-streamed flight events.
        """
        ch = self.channels[rank]
        msgs: List[dict] = []
        truncated = False
        while True:
            try:
                if ch.available() < 8:
                    break
                msg = self._read_frame(ch, time.monotonic() + deadline_s)
            except (TransportError, ValueError):
                truncated = True
                break
            if msg is not None:
                msgs.append(msg)
        return msgs, truncated

    def drain_until_finalize(
        self, rank: int, deadline_s: float
    ) -> Tuple[List[dict], bool, bool]:
        """Blocking drain of rank *rank* until its ``finalize`` dump.

        Returns ``(messages, finalized, truncated)``.  The conductor
        calls this right after broadcasting ``OP_OBS``: the worker may
        stream a dump larger than the ring, so reading concurrently is
        what lets the write complete.
        """
        ch = self.channels[rank]
        deadline = time.monotonic() + deadline_s
        msgs: List[dict] = []
        while True:
            try:
                msg = self._read_frame(ch, deadline)
            except (TransportError, ValueError):
                return msgs, False, True
            if msg is None:
                continue
            msgs.append(msg)
            if msg.get("kind") == "finalize":
                return msgs, True, False

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        for ch in self.channels:
            ch.close()

    def unlink(self) -> None:
        for ch in self.channels:
            ch.unlink()
        try:
            os.unlink(self._registry_path)
        except OSError:
            pass


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _SidebandFlightSink:
    """Flight-recorder detector hook that streams each event as a frame.

    Registered as the (only) detector of the worker's recorder: it sees
    every non-anomaly event at append time — the eager path that keeps a
    killed rank's record salvageable.
    """

    name = "sideband_sink"

    def __init__(self, obs: "RankObs"):
        self._obs = obs

    def on_event(self, ev: FlightEvent) -> List[Any]:
        self._obs._ship(
            {"kind": "flight", "rank": self._obs.rank, "event": ev.to_dict()},
            eager=True,
        )
        return []

    def finish(self) -> List[Any]:
        return []


class _TracedEndpoint:
    """Endpoint facade spanning ring sends/recvs into the rank tracer.

    ``ring_recv`` duration is *wait* (the drainer pops ready frames
    instantly, so blocking time is time spent waiting on a peer);
    ``ring_send`` duration is transport/copy time.  The tracer is read
    through the :class:`RankObs` on every call — ``finalize_and_ship``
    swaps in a fresh tracer per run, and spans must land in the current
    one, not the first run's.
    """

    __slots__ = ("_ep", "_obs")

    def __init__(self, ep, obs: "RankObs"):
        self._ep = ep
        self._obs = obs

    def send(self, dst, tag, arr, **kw):
        with self._obs.tracer.span("ring_send", "rank", dst=int(dst)) as sp:
            self._ep.send(dst, tag, arr, **kw)
            if sp:
                sp.add("bytes", int(getattr(arr, "nbytes", 0)))

    def recv(self, src, tag, **kw):
        with self._obs.tracer.span("ring_recv", "rank", src=int(src)) as sp:
            out = self._ep.recv(src, tag, **kw)
            if sp:
                sp.add("bytes", int(getattr(out, "nbytes", 0)))
            return out


class RankObs:
    """One worker's observability bundle (tracers and flight record).

    Lives inside the forked worker.  ``finalize_and_ship`` dumps the
    tracer forests over the sideband and resets
    every instrument — a cached pool serves many runs, and each run's
    record must start from zero for byte-identical replays.
    """

    #: worker-side flight ring (small: events also stream out eagerly)
    FLIGHT_CAPACITY = 4096

    def __init__(self, rank: int, size: int, channel: _Channel):
        self.rank = int(rank)
        self.size = int(size)
        self.channel = channel
        self.dropped = 0  # eager frames that did not fit in the ring
        self._broken = False  # a failed streaming write poisons the stream
        self._lock = threading.Lock()
        self.calls = 0
        self._reset()

    def _reset(self) -> None:
        self.calls = 0
        self.tracer = Tracer(clock=time.monotonic)
        self.hb_tracer = Tracer(clock=time.monotonic)
        # deterministic clock: the collective-call counter.  No wall
        # time, no uuid, no pid — same-seed runs replay byte-identical.
        self.flight = FlightRecorder(
            run_id=f"rank-{self.rank}",
            clock=lambda: float(self.calls),
            capacity=self.FLIGHT_CAPACITY,
            detectors=[_SidebandFlightSink(self)],
        )
        self.flight.set_coords(rank=self.rank)
        self.flight.record("worker_start", rank=self.rank, size=self.size)

    # -- shipping ------------------------------------------------------
    def _ship(self, obj: dict, eager: bool, timeout_s: float = 30.0) -> bool:
        if self._broken:
            self.dropped += 1
            return False
        blob = json.dumps(obj, default=str).encode()
        frame = len(blob).to_bytes(8, "little") + blob
        with self._lock:
            try:
                if eager:
                    # only write frames that fit *now*: single producer,
                    # so free space can only grow — the write below can
                    # neither block nor tear
                    free = self.channel.capacity - self.channel.available()
                    if len(frame) > free:
                        self.dropped += 1
                        return False
                    self.channel.write_bytes(frame)
                else:
                    self.channel.write_bytes(
                        frame, deadline=time.monotonic() + timeout_s
                    )
            except TransportError:
                # a torn frame would desynchronise the stream for good;
                # stop shipping rather than corrupt future frames
                self._broken = True
                self.dropped += 1
                return False
        return True

    # -- recording hooks (called from the worker command loop) ---------
    def collective(self, opname: str, iteration: int, step_code: int):
        """Open the opcode-level span + flight event for one collective.

        Returns the span context the caller enters around the exchange.
        """
        self.calls += 1
        step = STEP_CODES.get(step_code)
        it = None if iteration < 0 else int(iteration)
        self.flight.record(
            "collective", iteration=it, step=step, opcode=opname, call=self.calls
        )
        return self.tracer.span(
            opname,
            "collective",
            iteration=-1 if it is None else it,
            step=step or "",
            call=self.calls,
        )

    def heartbeat_span(self, counter: int):
        """A span on the heartbeat thread's own tracer (tid=1 lane);
        the main tracer's span stack is not thread-safe to share."""
        return self.hb_tracer.span("heartbeat", "rank", counter=int(counter))

    def finalize_and_ship(self, timeout_s: float = 30.0) -> None:
        """End the run's record: dump the tracers, then reset."""
        self.flight.record("worker_finalize", calls=self.calls)
        payload = {
            "kind": "finalize",
            "rank": self.rank,
            "spans": self.tracer.to_dicts(),
            "hb_spans": self.hb_tracer.to_dicts(),
            "sideband_dropped": self.dropped,
            "flight_dropped": self.flight.dropped,
            "clock": "monotonic",
        }
        self._ship(payload, eager=False, timeout_s=timeout_s)
        self._reset()


# ----------------------------------------------------------------------
# conductor side: collection, salvage parsing, merged views
# ----------------------------------------------------------------------
@dataclass
class RankObsResult:
    """Everything the sideband delivered for one run, per rank.

    ``tracers`` are already clock-aligned: worker ``time.monotonic()``
    minus the pool's handshake-measured offset puts every span on the
    conductor's monotonic timeline.
    """

    size: int
    offsets: Dict[int, float] = field(default_factory=dict)
    tracers: Dict[int, Tracer] = field(default_factory=dict)
    hb_tracers: Dict[int, Tracer] = field(default_factory=dict)
    flight_events: Dict[int, List[FlightEvent]] = field(default_factory=dict)
    #: eager frames each worker dropped for lack of ring space
    sideband_dropped: Dict[int, int] = field(default_factory=dict)
    #: events each worker's own flight ring evicted
    flight_dropped: Dict[int, int] = field(default_factory=dict)
    #: ranks whose stream ended mid-frame or without a finalize dump
    truncated: List[int] = field(default_factory=list)

    def merged_flight(self, conductor=None) -> List[FlightEvent]:
        """One rank-stamped flight record (see
        :func:`~repro.obs.flight.merge_flight_events`)."""
        return merge_flight_events(self.flight_events, conductor=conductor)

    def merged_trace(self, conductor: Optional[Tracer] = None) -> dict:
        """One Chrome trace, one pid lane per rank (+ conductor lane)."""
        return merged_chrome_trace(self, conductor=conductor)


def _ingest_rank(
    result: RankObsResult, rank: int, msgs: List[dict], finalized: bool
) -> None:
    offset = result.offsets.get(rank, 0.0)
    events: List[FlightEvent] = []
    for msg in msgs:
        kind = msg.get("kind")
        if kind == "flight":
            try:
                events.append(FlightEvent.from_dict(msg["event"]))
            except (KeyError, ValueError):
                continue
        elif kind == "finalize":
            tr = Tracer.from_dicts(msg.get("spans") or [], clock=time.monotonic)
            hb = Tracer.from_dicts(msg.get("hb_spans") or [], clock=time.monotonic)
            for root in tr.roots:
                root.shift(-offset)
            for root in hb.roots:
                root.shift(-offset)
            result.tracers[rank] = tr
            result.hb_tracers[rank] = hb
            result.sideband_dropped[rank] = int(msg.get("sideband_dropped", 0))
            result.flight_dropped[rank] = int(msg.get("flight_dropped", 0))
    result.flight_events[rank] = events
    if not finalized:
        result.truncated.append(rank)


# merge_registry is ignored; it stays only because benchmarks/e2e/run.py passes it
def collect_rank_obs(pool, *, merge_registry=None) -> RankObsResult:
    """Finalize and fetch every rank's obs bundle over the sideband.

    Broadcasts ``OP_OBS`` (each worker dumps-and-resets), then drains
    each ring until its finalize frame.
    """
    if pool.obsband is None:
        raise ValueError(
            "pool has no obs sideband — create it under enable_rank_obs()"
        )
    from .pool import OP_OBS  # lazy: pool imports this module at load time

    pool._command(OP_OBS)
    result = RankObsResult(
        size=pool.size, offsets=dict(getattr(pool, "clock_offsets", {}) or {})
    )
    for r in range(pool.size):
        msgs, finalized, _trunc = pool.obsband.drain_until_finalize(
            r, deadline_s=pool.timeout
        )
        _ingest_rank(result, r, msgs, finalized)
    return result


def drain_active_obs_pools() -> Dict[int, RankObsResult]:
    """Collect from every live cached pool that carries a sideband.

    The chaos harness uses this after a run that may have shrunk to a
    different rank count (and therefore a different pool): whatever
    instrumented pools are still alive get their records pulled into the
    conductor's merged view.
    """
    from .pool import _POOLS

    out: Dict[int, RankObsResult] = {}
    for key, pool in list(_POOLS.items()):
        if pool.obsband is not None and pool.alive():
            try:
                out[pool.size] = collect_rank_obs(pool)
            except Exception:  # salvage path: never let obs kill the run
                continue
    return out


def salvaged_flight_events(msgs: List[dict]) -> List[FlightEvent]:
    """The flight events inside a raw drained message list (salvage path:
    a broken pool's rings are drained without waiting for finalize)."""
    out: List[FlightEvent] = []
    for msg in msgs:
        if msg.get("kind") == "flight":
            try:
                out.append(FlightEvent.from_dict(msg["event"]))
            except (KeyError, ValueError):
                continue
    return out


def record_rank_events(
    fr, events: Dict[int, List[FlightEvent]], **flags: Any
) -> None:
    """Fold each rank's flight events, ranks in order, into the conductor
    record *fr* as ``rank_event`` rows.  Re-recorded, not spliced, so the
    conductor's run_meta and dense seq stay intact; *flags* (the salvage
    path's ``salvaged=True``) ride on every row."""
    for r in sorted(events):
        for ev in events[r]:
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
                **flags,
                **extra,
            )


def merged_chrome_trace(
    result: RankObsResult,
    conductor: Optional[Tracer] = None,
) -> dict:
    """Merge per-rank (clock-aligned) tracers into one Chrome trace.

    One pid lane per rank (``pid == rank``, main thread ``tid=0``,
    heartbeat thread ``tid=1``) plus an optional conductor lane
    (``pid == size``, pinned first via ``process_sort_index``).  All
    lanes share one time origin — the earliest span start across every
    tracer — so cross-lane alignment reflects the measured clock
    offsets.  The conductor tracer must run on ``time.monotonic`` to
    share the workers' clock domain.
    """
    from repro.obs.export import chrome_trace, merge_chrome_traces

    tracers: List[Tracer] = []
    if conductor is not None:
        tracers.append(conductor)
    tracers.extend(result.tracers.values())
    tracers.extend(result.hb_tracers.values())
    starts = [r.t0 for tr in tracers for r in tr.roots]
    base = min(starts, default=0.0)

    traces: List[dict] = []
    if conductor is not None:
        traces.append(
            chrome_trace(
                conductor,
                pid=result.size,
                process_name="conductor",
                base=base,
                sort_index=-1,
            )
        )
    for r in sorted(result.tracers):
        traces.append(
            chrome_trace(
                result.tracers[r],
                pid=r,
                process_name=f"rank {r}",
                base=base,
                sort_index=r,
                thread_name="main",
            )
        )
    for r in sorted(result.hb_tracers):
        if not result.hb_tracers[r].roots:
            continue
        traces.append(
            chrome_trace(
                result.hb_tracers[r],
                pid=r,
                process_name=f"rank {r}",
                base=base,
                tid=1,
                thread_name="heartbeat",
            )
        )
    return merge_chrome_traces(traces)
