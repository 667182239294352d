"""Online anomaly detection over the flight record.

Streaming detectors for the faults a run can suffer — every one fires
under some fault preset and stays silent on a fault-free run:

* :class:`RetryStormDetector` — bursts of injected faults / validation
  retries per iteration (comm retry storms under fault presets);
* :class:`StragglerDetector` — one rank repeatedly hit by ``delay``
  faults (a persistently slow node);
* :class:`CheckpointChurnDetector` — the recovery supervisor looping
  (repair/rollback without forward progress, degradation to serial
  replay);
* :class:`RankLossDetector` — worker processes classified permanently
  dead by the proc backend's failure detector (or the sim-side chaos
  model of the same fault);
* :class:`ShrinkRecoveryDetector` — the supervisor re-partitioned the
  run onto fewer ranks (shrink-to-survivors) after permanent losses.

Each detector consumes :class:`~repro.obs.flight.FlightEvent`\\ s as the
:class:`~repro.obs.flight.FlightRecorder` appends them (``on_event``)
and may hold partial state until ``finish()``.  Verdicts are
:class:`Anomaly` records — severity, iteration range, offending
rank/step, a human message, and **evidence pointers** (the sequence
numbers of the triggering events) — which the recorder writes back into
the record as ``anomaly`` events, so a single JSONL file carries both
the raw telemetry and the conclusions drawn from it.

The whole layer rides behind the flight recorder's NullFlightRecorder
off switch: with no recorder active, no detector ever runs, and the CI
overhead gate pins the disabled cost below 5 %.

No detector reads LACC's own structure: the Figure 7 decay of the
active set and the Figure 3 owner skew are normal behaviour, reported
per step by ``repro analyze``, not anomalies.
``tests/obs/test_anomaly.py::test_clean_corpus_runs_raise_no_anomalies``
pins zero anomalies on fault-free runs of every corpus graph under every
driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .flight import FlightEvent

__all__ = [
    "Anomaly",
    "AnomalyDetector",
    "RetryStormDetector",
    "StragglerDetector",
    "CheckpointChurnDetector",
    "RankLossDetector",
    "ShrinkRecoveryDetector",
    "default_detectors",
]

SEVERITIES = ("info", "warning", "critical")


@dataclass
class Anomaly:
    """One detector verdict, ready to be written into the flight record."""

    detector: str  # anomaly class: "retry_storm", "straggler", ...
    severity: str  # "info" | "warning" | "critical"
    message: str  # one-line human verdict
    first_iteration: Optional[int] = None
    last_iteration: Optional[int] = None
    rank: Optional[int] = None
    step: Optional[str] = None
    #: sequence numbers of the flight events that triggered the verdict
    evidence: List[int] = field(default_factory=list)
    data: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "detector": self.detector,
            "severity": self.severity,
            "message": self.message,
            "first_iteration": self.first_iteration,
            "last_iteration": self.last_iteration,
            "rank": self.rank,
            "step": self.step,
            "evidence": list(self.evidence),
            "data": dict(self.data),
        }


class AnomalyDetector:
    """Base streaming detector: override :meth:`on_event` / :meth:`finish`.

    Detectors are single-use — one instance per run record (they carry
    run state).  ``name`` is the anomaly class they emit.
    """

    name = "anomaly"

    def on_event(self, ev: FlightEvent) -> List[Anomaly]:
        return []

    def finish(self) -> List[Anomaly]:
        return []


class RetryStormDetector(AnomalyDetector):
    """Bursts of injected faults / retransmissions per iteration.

    Counts ``fault``, ``retry`` and ``collective_error`` events per
    iteration; an iteration with at least ``threshold`` such events is
    stormy, and consecutive stormy iterations merge into one anomaly
    whose message names the dominant collective.  Severity escalates to
    critical when any collective failed permanently inside the range.
    """

    name = "retry_storm"

    def __init__(self, threshold: int = 3):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self._current_iter: Optional[int] = None
        self._current: List[FlightEvent] = []
        self._storm: List[FlightEvent] = []
        self._storm_iters: List[int] = []

    def _roll_iteration(self) -> List[Anomaly]:
        """Close the per-iteration bucket; extend or flush the storm."""
        out: List[Anomaly] = []
        if len(self._current) >= self.threshold:
            if (
                self._storm_iters
                and self._current_iter is not None
                and self._current_iter > self._storm_iters[-1] + 1
            ):
                out = self._flush()
            self._storm.extend(self._current)
            if self._current_iter is not None:
                self._storm_iters.append(self._current_iter)
        else:
            out = self._flush()
        self._current = []
        return out

    def _flush(self) -> List[Anomaly]:
        if not self._storm:
            return []
        evs, iters = self._storm, self._storm_iters
        self._storm, self._storm_iters = [], []
        by_collective: Dict[str, int] = {}
        retries = 0
        permanent = False
        for e in evs:
            coll = e.data.get("collective", "?")
            by_collective[coll] = by_collective.get(coll, 0) + 1
            if e.kind == "retry":
                retries += 1
            if e.kind == "collective_error":
                permanent = True
        dominant = max(sorted(by_collective), key=lambda c: by_collective[c])
        first = iters[0] if iters else evs[0].iteration
        last = iters[-1] if iters else evs[-1].iteration
        detail = f"{len(evs)} fault/retry events ({retries} retransmissions)"
        return [
            Anomaly(
                detector=self.name,
                severity="critical" if permanent else "warning",
                message=(
                    f"iterations {first}–{last}: retry storm — "
                    f"{detail}, dominated by {dominant} "
                    f"({by_collective[dominant]} events)"
                    + (", escalating to a permanent failure" if permanent else "")
                ),
                first_iteration=first,
                last_iteration=last,
                evidence=[e.seq for e in evs],
                data={
                    "events": len(evs),
                    "retries": retries,
                    "by_collective": by_collective,
                    "permanent": permanent,
                },
            )
        ]

    def on_event(self, ev: FlightEvent) -> List[Anomaly]:
        if ev.kind not in ("fault", "retry", "collective_error"):
            return []
        out: List[Anomaly] = []
        if ev.iteration != self._current_iter:
            out = self._roll_iteration()
            self._current_iter = ev.iteration
        self._current.append(ev)
        return out

    def finish(self) -> List[Anomaly]:
        return self._roll_iteration() + self._flush()


class StragglerDetector(AnomalyDetector):
    """One rank repeatedly hit by ``delay`` faults — a persistently slow
    node rather than transient jitter.

    Flags every rank that absorbed at least ``min_events`` delay faults,
    with the iteration span and the cumulative slowdown factor observed.
    """

    name = "straggler"

    def __init__(self, min_events: int = 3):
        if min_events < 1:
            raise ValueError("min_events must be >= 1")
        self.min_events = min_events
        self._by_rank: Dict[int, List[FlightEvent]] = {}

    def on_event(self, ev: FlightEvent) -> List[Anomaly]:
        if ev.kind == "fault" and ev.data.get("fault_kind") == "delay":
            if ev.rank is not None:
                self._by_rank.setdefault(int(ev.rank), []).append(ev)
        return []

    def finish(self) -> List[Anomaly]:
        out: List[Anomaly] = []
        for rank in sorted(self._by_rank):
            evs = self._by_rank[rank]
            if len(evs) < self.min_events:
                continue
            iters = [e.iteration for e in evs if e.iteration is not None]
            first = min(iters) if iters else None
            last = max(iters) if iters else None
            factors = [
                float(e.data["delay_factor"])
                for e in evs
                if "delay_factor" in e.data
            ]
            out.append(
                Anomaly(
                    detector=self.name,
                    severity="warning",
                    message=(
                        f"rank {rank} is a persistent straggler: "
                        f"{len(evs)} delay faults over iterations "
                        f"{first}–{last}"
                        + (
                            f" (×{max(factors):g} slowdown)"
                            if factors
                            else ""
                        )
                    ),
                    first_iteration=first,
                    last_iteration=last,
                    rank=rank,
                    evidence=[e.seq for e in evs],
                    data={
                        "delay_events": len(evs),
                        "max_delay_factor": max(factors) if factors else None,
                    },
                )
            )
        self._by_rank = {}
        return out


class CheckpointChurnDetector(AnomalyDetector):
    """The recovery machinery looping instead of making progress.

    Two triggers:

    * ``loop_threshold`` recovery actions (repair/rollback) none of which
      advanced past the previous failure iteration — the supervisor is
      burning its budget at one spot;
    * a ``degrade`` action — the budget was exhausted (always critical).
      The verdict names the iteration the serial replay started from,
      read from the row's ``from_iteration`` field (``None``: scratch).
    """

    name = "checkpoint_churn"

    def __init__(self, loop_threshold: int = 2):
        self.loop_threshold = loop_threshold
        self._stuck: List[FlightEvent] = []
        self._high_water: Optional[int] = None

    def on_event(self, ev: FlightEvent) -> List[Anomaly]:
        if ev.kind != "recovery":
            return []
        action = ev.data.get("action")
        if action in ("audit_repair", "rollback"):
            if (
                self._high_water is not None
                and ev.iteration is not None
                and ev.iteration <= self._high_water
            ):
                self._stuck.append(ev)
            else:
                self._stuck = [ev]
            if ev.iteration is not None:
                self._high_water = max(self._high_water or 0, int(ev.iteration))
        elif action == "degrade":
            start = ev.data.get("from_iteration")
            return [
                Anomaly(
                    detector=self.name,
                    severity="critical",
                    message=(
                        "recovery budget exhausted: run degraded to serial "
                        "replay from "
                        + ("scratch" if start is None else f"iteration {start}")
                    ),
                    first_iteration=start,
                    last_iteration=start,
                    evidence=[ev.seq],
                    data={"action": "degrade", "from_iteration": start},
                )
            ]
        return []

    def finish(self) -> List[Anomaly]:
        out: List[Anomaly] = []
        if len(self._stuck) >= self.loop_threshold:
            iters = [e.iteration for e in self._stuck if e.iteration is not None]
            out.append(
                Anomaly(
                    detector=self.name,
                    severity="warning",
                    message=(
                        f"recovery loop: {len(self._stuck)} repair/rollback "
                        f"actions without progress past iteration "
                        f"{max(iters) if iters else '?'}"
                    ),
                    first_iteration=min(iters) if iters else None,
                    last_iteration=max(iters) if iters else None,
                    evidence=[e.seq for e in self._stuck],
                    data={"actions": len(self._stuck)},
                )
            )
        self._stuck = []
        return out


class RankLossDetector(AnomalyDetector):
    """Worker processes classified permanently dead.

    Every ``rank_lost`` event (proc-backend failure detector, or the
    sim-side chaos model of the same fault) is a severity-critical
    anomaly per rank: losing a rank is never business as usual, even
    when the supervisor goes on to recover.  Repeated losses of one rank
    merge into a single verdict carrying the loss count.
    """

    name = "rank_lost"

    def __init__(self):
        self._by_rank: Dict[int, List[FlightEvent]] = {}

    def on_event(self, ev: FlightEvent) -> List[Anomaly]:
        if ev.kind == "rank_lost" and ev.rank is not None:
            self._by_rank.setdefault(int(ev.rank), []).append(ev)
        return []

    def finish(self) -> List[Anomaly]:
        out: List[Anomaly] = []
        for rank in sorted(self._by_rank):
            evs = self._by_rank[rank]
            iters = [e.iteration for e in evs if e.iteration is not None]
            colls = sorted({e.data.get("collective", "?") for e in evs})
            out.append(
                Anomaly(
                    detector=self.name,
                    severity="critical",
                    message=(
                        f"rank {rank} permanently lost "
                        f"({len(evs)}× , during {', '.join(colls)})"
                        if len(evs) > 1
                        else f"rank {rank} permanently lost during {colls[0]}"
                    ),
                    first_iteration=min(iters) if iters else None,
                    last_iteration=max(iters) if iters else None,
                    rank=rank,
                    evidence=[e.seq for e in evs],
                    data={"losses": len(evs), "collectives": colls},
                )
            )
        self._by_rank = {}
        return out


class ShrinkRecoveryDetector(AnomalyDetector):
    """The supervisor re-partitioned onto fewer ranks after rank loss.

    Each ``recovery`` event with ``action == "shrink"`` is one
    severity-warning anomaly (the run *survived*, but on degraded
    resources — capacity planning should know).
    """

    name = "shrink_recovery"

    def on_event(self, ev: FlightEvent) -> List[Anomaly]:
        if ev.kind != "recovery" or ev.data.get("action") != "shrink":
            return []
        old, new = ev.data.get("old_ranks"), ev.data.get("new_ranks")
        return [
            Anomaly(
                detector=self.name,
                severity="warning",
                message=(
                    f"shrink-to-survivors: re-partitioned {old}→{new} ranks"
                    + (
                        f" at iteration {ev.iteration}"
                        if ev.iteration is not None
                        else ""
                    )
                ),
                first_iteration=ev.iteration,
                last_iteration=ev.iteration,
                evidence=[ev.seq],
                data={"old_ranks": old, "new_ranks": new,
                      "lost_ranks": ev.data.get("lost_ranks")},
            )
        ]


def default_detectors() -> List[AnomalyDetector]:
    """Fresh instances of every built-in detector (one set per run)."""
    return [
        RetryStormDetector(),
        StragglerDetector(),
        CheckpointChurnDetector(),
        RankLossDetector(),
        ShrinkRecoveryDetector(),
    ]
