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
  :data:`SCHEMA_VERSION` in its ``run_meta`` header event (seq 0);
* storage is a plain in-memory list plus an optional JSONL file on disk
  (append-only, one line per event, written at append time);
* the record is judged once, at replay: :func:`repro.obs.anomaly.detect`
  reads a finished (or cut-short) record and returns its verdicts, with
  evidence pointers (sequence numbers) to the events that triggered them.

Event kinds written by the instrumented layers
----------------------------------------------
``run_meta``          recorder header: run id, schema version
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
``anomaly``           a detector verdict, written by older recorders;
                      replay ignores it (see :mod:`repro.obs.anomaly`)
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
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "SCHEMA_VERSION",
    "FlightEvent",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "read_flight_jsonl",
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
    """Append-only run record: a plain list of events plus an optional
    JSONL sink.

    A run records O(collectives × ``max_retries``) events, so the list
    is bounded by the run itself and nothing is ever evicted.

    Parameters
    ----------
    run_id:
        Key of the record; generated when omitted.
    clock:
        Zero-argument callable returning run seconds.  The distributed
        driver rebinds this to the cost model's simulated clock (see
        :meth:`bind_clock`) so timestamps share the trace's clock domain.
    path:
        Optional JSONL sink; one event per line, written at append time.
    """

    def __init__(
        self,
        run_id: Optional[str] = None,
        clock: Callable[[], float] = time.perf_counter,
        path: Optional[str] = None,
    ):
        self.run_id = run_id if run_id is not None else f"run-{uuid.uuid4().hex[:12]}"
        #: every event in causal order (``events[i].seq == i``)
        self.events: List[FlightEvent] = []
        self._iteration: Optional[int] = None
        self._rank: Optional[int] = None
        self._fh = open(path, "w") if path else None
        self.path = path
        # the header predates any clock binding (the driver rebinds to the
        # simulated clock later), so pin it to t=0 rather than stamping a
        # wall-clock time into an otherwise run-clocked record
        self.clock: Callable[[], float] = lambda: 0.0
        self.record("run_meta", run_id=self.run_id, schema_version=SCHEMA_VERSION)
        self.clock = clock

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
        """Append one event; returns it (seq already assigned)."""
        ev = FlightEvent(
            seq=len(self.events),
            ts=self.clock(),
            kind=kind,
            rank=rank if rank is not None else self._rank,
            iteration=iteration if iteration is not None else self._iteration,
            step=step,
            data=data,
        )
        self.events.append(ev)
        if self._fh is not None:
            self._fh.write(json.dumps(ev.to_dict()) + "\n")
        return ev

    def close(self) -> None:
        """Close the JSONL sink (if any); the record stays readable."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading --------------------------------------------------------
    def __bool__(self) -> bool:
        return True

    def find(self, kind: str) -> List[FlightEvent]:
        """Events of *kind*, in causal order."""
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)


class NullFlightRecorder:
    """The off switch: falsy, absorbs every recording call."""

    __slots__ = ()

    def record(self, kind: str, **kw: Any) -> None:
        return None

    def set_coords(self, iteration=None, rank=None) -> None:
        pass

    def bind_clock(self, clock) -> None:
        pass

    def __bool__(self) -> bool:
        return False


#: Shared disabled recorder — the default target of :func:`flight_recorder`.
NULL_FLIGHT = NullFlightRecorder()


def read_flight_jsonl(path: str) -> List[FlightEvent]:
    """Load a flight record written via ``FlightRecorder(path=...)``.

    Returns events in causal (sequence) order.  ``ValueError`` when a
    line is malformed, when the record is empty or its seq-0 event is not
    the ``run_meta`` header (not a flight record), or when the header's
    schema version is not :data:`SCHEMA_VERSION`.
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
    events.sort(key=lambda e: e.seq)
    if not events:
        raise ValueError(f"{path}: empty flight record")
    head = events[0]
    if head.seq != 0 or head.kind != "run_meta":
        raise ValueError(f"{path}: not a flight record (seq 0 is not a "
                         "run_meta header)")
    version = head.data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: flight record schema_version {version!r} "
            f"(this reader understands {SCHEMA_VERSION})"
        )
    return events
