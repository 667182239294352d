"""Per-rank observability for the real-process backend.

The conductor-side obs stack (:mod:`repro.obs`) only ever saw the parent
process: the forked workers of :class:`~repro.parallel.pool.WorkerPool`
executed every collective exchange invisibly.  This module closes that
gap.  Each worker ships home, as frames on the data fabric under the
reserved tag :data:`TAG_OBS`,

* a per-rank :class:`~repro.obs.tracer.Tracer` — opcode-level spans
  around every collective exchange, with ``ring_send`` / ``ring_recv`` /
  ``fold`` child spans so compute/comm/wait attribution is *measured*,
  plus a second tracer for the heartbeat thread (exported as ``tid=1``
  of the rank's pid lane);
* a per-rank :class:`~repro.obs.flight.FlightRecorder` whose events are
  **sent eagerly**, one frame per event, so a SIGKILLed rank's last
  events are already queued at the conductor for the chaos postmortem
  (salvaged by ``WorkerPool.close``).

Obs frames
----------
An obs frame is a uint8 array holding one JSON object, sent on the
worker's raw endpoint (so it gets no ``ring_send`` span) to the
conductor, exactly like a heartbeat on ``TAG_HB``.  The conductor's
drainer queues it like any other frame; :func:`collect_rank_obs` reads
a rank's queue up to its ``finalize`` dump.

Determinism
-----------
Per-rank flight records are **byte-identical across same-seed runs**:
the worker recorder's clock is the rank's collective-call counter (not
wall time), its ``run_id`` is ``rank-<r>``, and no event carries a PID,
wall timestamp, or heartbeat-derived (time-driven) quantity.  Tracer
spans, by contrast, use real ``time.monotonic()`` — they exist to
measure — and need no alignment: the backend runs only where ``fork``
exists (Linux, macOS), and there ``time.monotonic()`` is one system-wide
clock shared by the conductor and every worker.

Obs-off is a true null path: :func:`rank_obs_enabled` gates the worker
instruments in the pool (cache key ``(size, obs)``), so a plain proc
run builds no tracer or flight record in its workers and sends no obs
frame.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.obs.flight import FlightEvent, FlightRecorder
from repro.obs.tracer import Tracer

__all__ = [
    "TAG_OBS",
    "STEP_CODES",
    "STEP_TO_CODE",
    "rank_obs_enabled",
    "enable_rank_obs",
    "RankObs",
    "RankObsResult",
    "collect_rank_obs",
    "drain_active_obs_pools",
    "merged_chrome_trace",
]

#: reserved obs tag — below the heartbeats' ``TAG_HB`` (-1), so it can
#: collide with neither them, ``TAG_CMD`` (0) nor the positive data tags
TAG_OBS = -2

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
    """Whether new pools should build worker obs instruments."""
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
# worker side
# ----------------------------------------------------------------------
class _ShippingRecorder(FlightRecorder):
    """The worker's flight record: every event is also sent as one frame
    the moment it is appended — the eager path that keeps a killed
    rank's record salvageable."""

    def __init__(self, obs: "RankObs", **kw: Any):
        self._obs = obs  # set first: the run_meta header ships too
        super().__init__(**kw)

    def record(self, kind: str, **kw: Any) -> FlightEvent:
        ev = super().record(kind, **kw)
        self._obs._ship({"kind": "flight", "rank": self._obs.rank, "event": ev.to_dict()})
        return ev


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

    Lives inside the forked worker and sends its frames on the worker's
    raw endpoint *ep*; *alive* is the worker's parent-liveness probe, so
    a send into a full ring gives up once the conductor is gone.
    ``finalize_and_ship`` dumps the tracer forests and resets every
    instrument — a cached pool serves many runs, and each run's record
    must start from zero for byte-identical replays.
    """

    def __init__(self, rank: int, size: int, ep, alive):
        self.rank = int(rank)
        self.size = int(size)
        self.ep = ep
        self.alive = alive
        self.calls = 0
        self._reset()

    def _reset(self) -> None:
        self.calls = 0
        self.tracer = Tracer(clock=time.monotonic)
        self.hb_tracer = Tracer(clock=time.monotonic)
        # deterministic clock: the collective-call counter.  No wall
        # time, no uuid, no pid — same-seed runs replay byte-identical.
        self.flight = _ShippingRecorder(
            self, run_id=f"rank-{self.rank}", clock=lambda: float(self.calls)
        )
        self.flight.set_coords(rank=self.rank)
        self.flight.record("worker_start", rank=self.rank, size=self.size)

    def _ship(self, obj: dict) -> None:
        """Send *obj* to the conductor (endpoint ``size``) as one obs frame."""
        blob = json.dumps(obj, default=str).encode()
        self.ep.send(
            self.size, TAG_OBS, np.frombuffer(blob, dtype=np.uint8), alive=self.alive
        )

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

    def finalize_and_ship(self) -> None:
        """End the run's record: dump the tracers, then reset."""
        self.flight.record("worker_finalize", calls=self.calls)
        self._ship({
            "kind": "finalize",
            "rank": self.rank,
            "spans": self.tracer.to_dicts(),
            "hb_spans": self.hb_tracer.to_dicts(),
        })
        self._reset()


# ----------------------------------------------------------------------
# conductor side: collection, salvage parsing, merged views
# ----------------------------------------------------------------------
@dataclass
class RankObsResult:
    """Everything the workers sent for one run, per rank.  Span times
    are the workers' ``time.monotonic()``, the conductor's clock too."""

    size: int
    tracers: Dict[int, Tracer] = field(default_factory=dict)
    hb_tracers: Dict[int, Tracer] = field(default_factory=dict)
    flight_events: Dict[int, List[FlightEvent]] = field(default_factory=dict)

    def merged_trace(self, conductor: Optional[Tracer] = None) -> dict:
        """One Chrome trace, one pid lane per rank (+ conductor lane)."""
        return merged_chrome_trace(self, conductor=conductor)


def _obs_frame(frame: np.ndarray) -> dict:
    """The JSON object one obs frame carries."""
    return json.loads(frame.tobytes())


# merge_registry is ignored; it stays only because benchmarks/e2e/run.py passes it
def collect_rank_obs(pool, *, merge_registry=None) -> RankObsResult:
    """Finalize and fetch every rank's obs bundle.

    Broadcasts ``OP_OBS`` (each worker dumps-and-resets), then reads
    each rank's obs frames up to its finalize dump.
    """
    if not pool.obs:
        raise ValueError(
            "pool has no worker obs instruments — create it under enable_rank_obs()"
        )
    from .pool import OP_OBS  # lazy: pool imports this module at load time

    pool._command(OP_OBS)
    result = RankObsResult(size=pool.size)
    for r in range(pool.size):
        msgs = [_obs_frame(pool._recv(r, TAG_OBS))]
        while msgs[-1].get("kind") != "finalize":
            msgs.append(_obs_frame(pool._recv(r, TAG_OBS)))
        fin = msgs.pop()
        result.flight_events[r] = salvaged_flight_events(msgs)
        result.tracers[r] = Tracer.from_dicts(fin["spans"], clock=time.monotonic)
        result.hb_tracers[r] = Tracer.from_dicts(fin["hb_spans"], clock=time.monotonic)
    return result


def drain_active_obs_pools() -> Dict[int, RankObsResult]:
    """Collect from every live cached pool that carries obs instruments.

    The chaos harness uses this after a run that may have shrunk to a
    different rank count (and therefore a different pool): whatever
    instrumented pools are still alive get their records pulled into the
    conductor's merged view.
    """
    from .pool import _POOLS

    out: Dict[int, RankObsResult] = {}
    for key, pool in list(_POOLS.items()):
        if pool.obs and pool.alive():
            try:
                out[pool.size] = collect_rank_obs(pool)
            except Exception:  # salvage path: never let obs kill the run
                continue
    return out


def salvaged_flight_events(msgs: List[dict]) -> List[FlightEvent]:
    """The flight events inside a list of obs frames' objects (also the
    salvage path: a broken pool's frames are read without a finalize)."""
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
    """Merge per-rank tracers into one Chrome trace.

    One pid lane per rank (``pid == rank``, main thread ``tid=0``,
    heartbeat thread ``tid=1``) plus an optional conductor lane
    (``pid == size``, pinned first via ``process_sort_index``).  All
    lanes share one time origin — the earliest span start across every
    tracer.  The conductor tracer must run on ``time.monotonic`` to
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
