"""Flight recorder — one causally-ordered run record for a whole run.

Before this module the repo's telemetry lived in three disconnected
streams: spans (:mod:`repro.obs.tracer`), fault-injection logs
(:mod:`repro.faults`) and recovery events
(:mod:`repro.recovery.supervisor`).  Correlating a recovery loop with
the retry storm that caused it meant joining those streams by hand.  A :class:`FlightRecorder` merges them into one
**append-only, causally-ordered, schema-versioned** record:

* every record is a :class:`FlightEvent` with a monotone sequence number
  (the causal order), a run-clock timestamp (simulated seconds for
  ``lacc_dist``, wall seconds otherwise), and per-rank / per-iteration /
  per-step coordinates;
* the record is keyed by a ``run_id`` and carries
  :data:`SCHEMA_VERSION` in its ``run_meta`` header event;
* storage is a bounded in-memory ring buffer (old events drop, the
  ``dropped`` counter says how many) plus an optional JSONL file on disk
  (append-only, never dropped);
* **streaming consumers**: anomaly detectors (:mod:`repro.obs.anomaly`)
  registered on the recorder see every event as it is appended and emit
  structured ``anomaly`` events back into the same record, with evidence
  pointers (sequence numbers) to the events that triggered them.

Event kinds written by the instrumented layers
----------------------------------------------
``run_meta``          recorder header: run id, schema version, capacity
``run_start``         driver entry: driver name, graph size, topology
``iteration``         one LACC iteration: active vertices, hooks, seconds
``step``              one routed LACC step: λ=max/mean, worst rank
``fault``             one injected fault (kind, collective, rank)
``retry``             one retransmission after validation failure
``collective_error``  a collective that failed permanently
``rank_lost``         a worker process classified permanently dead (proc
                      backend failure detector, or the sim-side chaos
                      model of the same fault)
``checkpoint``        supervisor sealed a checkpoint
``recovery``          supervisor action: fault/watchdog/repair/rollback/shrink/degrade
``anomaly``           a detector verdict (see :mod:`repro.obs.anomaly`)
``run_end``           driver exit: iterations, components (or the error)
``analytics``         the run's per-step λ / delay attribution
                      (:mod:`repro.obs.analytics`), written by ``repro run``

Design constraints (shared with the tracer)
-------------------------------------------
* **Zero cost when off.**  Instrumented call sites do::

      fr = flight_recorder()
      if fr:                         # falsy NullFlightRecorder when off
          fr.record("iteration", iteration=k, active=n_active)

  With no recorder activated, :func:`flight_recorder` returns the falsy
  singleton :data:`NULL_FLIGHT` — the guarded block never runs, so the
  disabled path pays one function call and one truthiness check (the CI
  overhead gate holds this below 5 %, same budget as the NullTracer).
* **No repro dependencies** above the standard library, so every layer
  (graphblas, mpisim, core, faults, recovery, cli) can hook in without
  import cycles.
* **One obs scope**: :func:`repro.obs.tracer.activate` (``flight=``)
  scopes the process-wide recorder next to the tracer;
  :func:`repro.obs.tracer.flight_recorder` reads it.
"""

from __future__ import annotations

import json
import time
import uuid
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = [
    "SCHEMA_VERSION",
    "FlightEvent",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "read_flight_jsonl",
    "merge_flight_events",
]

#: Version of the on-disk / in-memory event schema.  Bump on any change
#: to the field set of :class:`FlightEvent` or the meaning of a kind.
SCHEMA_VERSION = 1


class FlightEvent:
    """One row of the run record.

    ``seq`` is the causal order (monotone, assigned at append); ``ts`` is
    the run clock (simulated seconds when the recorder is bound to a cost
    model, host seconds otherwise).  ``rank`` / ``iteration`` / ``step``
    are the coordinates; ``data`` holds kind-specific payload.
    """

    __slots__ = ("seq", "ts", "kind", "rank", "iteration", "step", "data")

    def __init__(
        self,
        seq: int,
        ts: float,
        kind: str,
        rank: Optional[int] = None,
        iteration: Optional[int] = None,
        step: Optional[str] = None,
        data: Optional[Dict[str, Any]] = None,
    ):
        self.seq = seq
        self.ts = ts
        self.kind = kind
        self.rank = rank
        self.iteration = iteration
        self.step = step
        self.data = data if data is not None else {}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "rank": self.rank,
            "iteration": self.iteration,
            "step": self.step,
            "data": self.data,
        }

    @classmethod
    def from_dict(cls, row: Dict[str, Any]) -> "FlightEvent":
        try:
            return cls(
                seq=int(row["seq"]),
                ts=float(row["ts"]),
                kind=str(row["kind"]),
                rank=row.get("rank"),
                iteration=row.get("iteration"),
                step=row.get("step"),
                data=row.get("data") or {},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed flight event: {exc}") from None

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = "" if self.iteration is None else f" it={self.iteration}"
        return f"FlightEvent(#{self.seq} {self.kind}{where})"


class FlightRecorder:
    """Append-only run record with a bounded ring buffer and JSONL sink.

    Parameters
    ----------
    run_id:
        Key of the record; generated when omitted.
    clock:
        Zero-argument callable returning run seconds.  The distributed
        driver rebinds this to the cost model's simulated clock (see
        :meth:`bind_clock`) so timestamps share the trace's clock domain.
    capacity:
        Ring-buffer bound.  Older events drop from memory once exceeded
        (:attr:`dropped` counts them); the JSONL file, when configured,
        keeps everything.  ``anomaly`` events are additionally retained
        in full regardless of the ring bound — verdicts must not be
        evicted by the evidence that produced them.
    path:
        Optional JSONL sink; one event per line, written at append time.
    detectors:
        Streaming anomaly detectors (:mod:`repro.obs.anomaly` protocol:
        ``name`` attribute, ``on_event(event) -> [Anomaly]``,
        ``finish() -> [Anomaly]``).  Their verdicts are recorded back
        into this record as ``anomaly`` events.
    """

    def __init__(
        self,
        run_id: Optional[str] = None,
        clock: Callable[[], float] = time.perf_counter,
        capacity: int = 65536,
        path: Optional[str] = None,
        detectors: Optional[Iterable[Any]] = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.run_id = run_id if run_id is not None else f"run-{uuid.uuid4().hex[:12]}"
        self.clock = clock
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self._anomalies: List[FlightEvent] = []
        self._seq = 0
        self._iteration: Optional[int] = None
        self._rank: Optional[int] = None
        self._fh = open(path, "w") if path else None
        self.path = path
        self.detectors: List[Any] = list(detectors) if detectors is not None else []
        self._finished = False
        # the header predates any clock binding (the driver rebinds to the
        # simulated clock later), so pin it to t=0 rather than stamping a
        # wall-clock time into an otherwise run-clocked record
        run_clock, self.clock = self.clock, (lambda: 0.0)
        self.record(
            "run_meta",
            run_id=self.run_id,
            schema_version=SCHEMA_VERSION,
            capacity=capacity,
        )
        self.clock = run_clock

    # -- coordinates ----------------------------------------------------
    def set_coords(
        self, iteration: Optional[int] = None, rank: Optional[int] = None
    ) -> None:
        """Set ambient coordinates stamped on subsequent events that do
        not pass their own — the driver sets the iteration once per loop
        so deeply nested layers (collectives, faults) inherit it without
        threading it through every call signature."""
        if iteration is not None:
            self._iteration = iteration
        if rank is not None:
            self._rank = rank

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Rebind the run clock (e.g. to a cost model's simulated
        seconds) so flight timestamps share the trace's clock domain."""
        self.clock = clock

    # -- recording ------------------------------------------------------
    def record(
        self,
        kind: str,
        rank: Optional[int] = None,
        iteration: Optional[int] = None,
        step: Optional[str] = None,
        **data: Any,
    ) -> FlightEvent:
        """Append one event; returns it (seq already assigned).

        Non-anomaly events are dispatched to the registered detectors;
        any :class:`~repro.obs.anomaly.Anomaly` they yield is recorded
        immediately after, as an ``anomaly`` event pointing back at its
        evidence."""
        ev = FlightEvent(
            seq=self._seq,
            ts=self.clock(),
            kind=kind,
            rank=rank if rank is not None else self._rank,
            iteration=iteration if iteration is not None else self._iteration,
            step=step,
            data=data,
        )
        self._seq += 1
        self._ring.append(ev)
        if kind == "anomaly":
            self._anomalies.append(ev)
        if self._fh is not None:
            self._fh.write(json.dumps(ev.to_dict()) + "\n")
        if kind != "anomaly":
            for det in self.detectors:
                for anom in det.on_event(ev):
                    self.record_anomaly(anom)
        return ev

    def record_anomaly(self, anomaly: Any) -> FlightEvent:
        """Record one detector verdict as an ``anomaly`` event.

        The anomaly's ``rank``/``step`` become the event's coordinates
        (readers re-hydrate them from there), not duplicate data keys."""
        d = anomaly.to_dict()
        return self.record(
            "anomaly",
            rank=d.get("rank"),
            iteration=d.get("first_iteration"),
            step=d.get("step"),
            **{k: v for k, v in d.items() if k not in ("rank", "step")},
        )

    def finish(self) -> List[FlightEvent]:
        """Flush the detectors' pending verdicts and the JSONL sink.

        Idempotent; returns the anomaly events recorded by this flush.
        The recorder stays readable afterwards (and writable — the
        supervisor may restart a driver after a flush)."""
        flushed: List[FlightEvent] = []
        if not self._finished:
            for det in self.detectors:
                for anom in det.finish():
                    flushed.append(self.record_anomaly(anom))
            self._finished = True
        if self._fh is not None:
            self._fh.flush()
        return flushed

    def close(self) -> None:
        """Finish and close the JSONL sink (if any)."""
        self.finish()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading --------------------------------------------------------
    def __bool__(self) -> bool:
        return True

    @property
    def enabled(self) -> bool:
        return True

    @property
    def events(self) -> List[FlightEvent]:
        """In-memory events in causal order (ring-bounded)."""
        return list(self._ring)

    @property
    def n_recorded(self) -> int:
        """Total events ever appended (including dropped ones)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events evicted from the in-memory ring (still on disk when a
        JSONL sink is configured)."""
        return self._seq - len(self._ring)

    def anomalies(self) -> List[FlightEvent]:
        """Every ``anomaly`` event of the run (never ring-evicted)."""
        return list(self._anomalies)

    def find(self, kind: Optional[str] = None) -> List[FlightEvent]:
        """In-memory events matching *kind* (all when ``None``)."""
        return [e for e in self._ring if kind is None or e.kind == kind]

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FlightRecorder({self.run_id!r}, {len(self._ring)} events, "
            f"{len(self._anomalies)} anomalies, {self.dropped} dropped)"
        )


class NullFlightRecorder:
    """The off switch: falsy, absorbs every recording call."""

    __slots__ = ()

    run_id = ""
    path = None
    detectors: List[Any] = []

    def record(self, kind: str, **kw: Any) -> None:
        return None

    def record_anomaly(self, anomaly: Any) -> None:
        return None

    def set_coords(self, iteration=None, rank=None) -> None:
        pass

    def bind_clock(self, clock) -> None:
        pass

    def finish(self) -> List[FlightEvent]:
        return []

    def close(self) -> None:
        pass

    def __bool__(self) -> bool:
        return False

    @property
    def enabled(self) -> bool:
        return False

    @property
    def events(self) -> List[FlightEvent]:
        return []

    @property
    def n_recorded(self) -> int:
        return 0

    @property
    def dropped(self) -> int:
        return 0

    def anomalies(self) -> List[FlightEvent]:
        return []

    def find(self, kind: Optional[str] = None) -> List[FlightEvent]:
        return []

    def __len__(self) -> int:
        return 0


#: Shared disabled recorder — the default target of :func:`flight_recorder`.
NULL_FLIGHT = NullFlightRecorder()


def merge_flight_events(
    per_rank: Dict[int, List[FlightEvent]],
    conductor: Optional[List[FlightEvent]] = None,
) -> List[FlightEvent]:
    """Merge per-rank flight records into one rank-stamped record.

    Every event gets its source rank as its ``rank`` coordinate (the
    worker recorders run with deterministic per-rank clocks, so their own
    coordinates never carry the global view), plus ``origin_seq`` /
    ``origin_ts`` in ``data`` preserving the per-rank causal order and
    per-rank clock.  Conductor events, when given, keep ``rank=None``.
    The merged sequence is reassigned globally: conductor order first
    criterion is the per-rank timestamp (the worker flight clocks count
    collective calls, so equal call indices across ranks interleave by
    rank id — a deterministic tie-break).
    """
    rows: List[tuple] = []
    for rank in sorted(per_rank):
        for ev in per_rank[rank]:
            data = dict(ev.data)
            data["origin_seq"] = ev.seq
            data["origin_ts"] = ev.ts
            rows.append(
                (
                    ev.ts,
                    rank,
                    ev.seq,
                    FlightEvent(
                        seq=0,
                        ts=ev.ts,
                        kind=ev.kind,
                        rank=rank,
                        iteration=ev.iteration,
                        step=ev.step,
                        data=data,
                    ),
                )
            )
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    merged = [r[3] for r in rows]
    if conductor:
        # copy: the caller's recorder still owns the originals, and the
        # merge reassigns sequence numbers
        merged = [
            FlightEvent(
                seq=ev.seq,
                ts=ev.ts,
                kind=ev.kind,
                rank=ev.rank,
                iteration=ev.iteration,
                step=ev.step,
                data=dict(ev.data),
            )
            for ev in conductor
        ] + merged
    for i, ev in enumerate(merged):
        ev.seq = i
    return merged


def read_flight_jsonl(path: str) -> List[FlightEvent]:
    """Load a flight record written via ``FlightRecorder(path=...)``.

    Validates the schema version of the ``run_meta`` header (when
    present) and returns events in causal (sequence) order.
    """
    events: List[FlightEvent] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(FlightEvent.from_dict(json.loads(line)))
            except (json.JSONDecodeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    for ev in events:
        if ev.kind == "run_meta":
            version = ev.data.get("schema_version")
            if version != SCHEMA_VERSION:
                raise ValueError(
                    f"{path}: flight record schema_version {version!r} "
                    f"(this reader understands {SCHEMA_VERSION})"
                )
            break
    events.sort(key=lambda e: e.seq)
    return events
