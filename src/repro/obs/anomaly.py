"""Anomaly detection over a finished flight record.

Five detectors for the faults a run can suffer — every one fires under
some fault preset and stays silent on a fault-free run:

* :func:`retry_storm` — bursts of injected faults / validation retries
  per iteration (comm retry storms under fault presets);
* :func:`straggler` — one rank repeatedly hit by ``delay`` faults (a
  persistently slow node);
* :func:`checkpoint_churn` — the recovery supervisor looping
  (repair/rollback without forward progress, degradation to serial
  replay);
* :func:`rank_lost` — worker processes classified permanently dead by
  the proc backend's failure detector (or the sim-side chaos model of
  the same fault);
* :func:`shrink_recovery` — the supervisor re-partitioned the run onto
  fewer ranks (shrink-to-survivors) after permanent losses.

Each detector is a function from a list of
:class:`~repro.obs.flight.FlightEvent`\\ s to its verdicts, and
:func:`detect` runs all five once, at replay — over
``recorder.events`` after a run, or over a JSONL file read back by
:func:`~repro.obs.flight.read_flight_jsonl`.  A record cut short (a
crash, a killed conductor) is judged on the events it holds.  Verdicts
are :class:`Anomaly` records — severity, iteration range, offending
rank/step, a human message, and **evidence pointers** (the sequence
numbers of the triggering events).

No detector reads LACC's own structure: the Figure 7 decay of the
active set and the Figure 3 owner skew are normal behaviour, reported
per step by ``repro run --analyze``, not anomalies.
``tests/obs/test_anomaly.py::test_clean_corpus_runs_raise_no_anomalies``
pins zero anomalies on fault-free runs of every corpus graph under every
driver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .flight import FlightEvent

__all__ = [
    "Anomaly",
    "detect",
    "retry_storm",
    "straggler",
    "checkpoint_churn",
    "rank_lost",
    "shrink_recovery",
]

SEVERITIES = ("info", "warning", "critical")

#: fault/retry events in one iteration that make it stormy
STORM_EVENTS = 3
#: delay faults on one rank that make it a straggler
STRAGGLER_EVENTS = 3
#: repair/rollback actions without progress that make a recovery loop
CHURN_ACTIONS = 2


@dataclass
class Anomaly:
    """One detector verdict."""

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


def _storm(evs: List[FlightEvent], iters: List[int]) -> Anomaly:
    by_collective: Dict[str, int] = {}
    for e in evs:
        coll = e.data.get("collective", "?")
        by_collective[coll] = by_collective.get(coll, 0) + 1
    retries = sum(e.kind == "retry" for e in evs)
    permanent = any(e.kind == "collective_error" for e in evs)
    dominant = max(sorted(by_collective), key=lambda c: by_collective[c])
    first = iters[0] if iters else evs[0].iteration
    last = iters[-1] if iters else evs[-1].iteration
    detail = f"{len(evs)} fault/retry events ({retries} retransmissions)"
    return Anomaly(
        detector="retry_storm",
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


def retry_storm(events: List[FlightEvent]) -> List[Anomaly]:
    """Bursts of injected faults / retransmissions per iteration.

    Groups consecutive ``fault``, ``retry`` and ``collective_error``
    events by iteration; a group of at least :data:`STORM_EVENTS` is
    stormy.  Stormy groups merge into one verdict until a quiet group or
    a jump past the next iteration ends it; its message names the
    dominant collective.  Severity escalates to critical when any
    collective failed permanently inside the range.
    """
    out: List[Anomaly] = []
    storm: List[FlightEvent] = []
    iters: List[int] = []
    faults = [e for e in events
              if e.kind in ("fault", "retry", "collective_error")]
    for it, group in itertools.groupby(faults, key=lambda e: e.iteration):
        group = list(group)
        if len(group) < STORM_EVENTS or (
            iters and it is not None and it > iters[-1] + 1
        ):
            if storm:
                out.append(_storm(storm, iters))
            storm, iters = [], []
        if len(group) >= STORM_EVENTS:
            storm.extend(group)
            if it is not None:
                iters.append(it)
    if storm:
        out.append(_storm(storm, iters))
    return out


def straggler(events: List[FlightEvent]) -> List[Anomaly]:
    """One rank repeatedly hit by ``delay`` faults — a persistently slow
    node rather than transient jitter.

    Flags every rank that absorbed at least :data:`STRAGGLER_EVENTS`
    delay faults, with the iteration span and the cumulative slowdown
    factor observed.
    """
    by_rank: Dict[int, List[FlightEvent]] = {}
    for e in events:
        if (e.kind == "fault" and e.data.get("fault_kind") == "delay"
                and e.rank is not None):
            by_rank.setdefault(int(e.rank), []).append(e)
    out: List[Anomaly] = []
    for rank in sorted(by_rank):
        evs = by_rank[rank]
        if len(evs) < STRAGGLER_EVENTS:
            continue
        iters = [e.iteration for e in evs if e.iteration is not None]
        first = min(iters) if iters else None
        last = max(iters) if iters else None
        factors = [float(e.data["delay_factor"]) for e in evs
                   if "delay_factor" in e.data]
        out.append(
            Anomaly(
                detector="straggler",
                severity="warning",
                message=(
                    f"rank {rank} is a persistent straggler: "
                    f"{len(evs)} delay faults over iterations "
                    f"{first}–{last}"
                    + (f" (×{max(factors):g} slowdown)" if factors else "")
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
    return out


def checkpoint_churn(events: List[FlightEvent]) -> List[Anomaly]:
    """The recovery machinery looping instead of making progress.

    Two triggers:

    * :data:`CHURN_ACTIONS` trailing recovery actions (repair/rollback)
      none of which advanced past the previous failure iteration — the
      supervisor is burning its budget at one spot;
    * a ``degrade`` action — the budget was exhausted (always critical).
      The verdict names the iteration the serial replay started from,
      read from the row's ``from_iteration`` field (``None``: scratch).
    """
    out: List[Anomaly] = []
    stuck: List[FlightEvent] = []
    high_water: Optional[int] = None
    for e in events:
        if e.kind != "recovery":
            continue
        action = e.data.get("action")
        if action in ("audit_repair", "rollback"):
            if (high_water is not None and e.iteration is not None
                    and e.iteration <= high_water):
                stuck.append(e)
            else:
                stuck = [e]
            if e.iteration is not None:
                high_water = max(high_water or 0, int(e.iteration))
        elif action == "degrade":
            start = e.data.get("from_iteration")
            out.append(
                Anomaly(
                    detector="checkpoint_churn",
                    severity="critical",
                    message=(
                        "recovery budget exhausted: run degraded to serial "
                        "replay from "
                        + ("scratch" if start is None else f"iteration {start}")
                    ),
                    first_iteration=start,
                    last_iteration=start,
                    evidence=[e.seq],
                    data={"action": "degrade", "from_iteration": start},
                )
            )
    if len(stuck) >= CHURN_ACTIONS:
        iters = [e.iteration for e in stuck if e.iteration is not None]
        out.append(
            Anomaly(
                detector="checkpoint_churn",
                severity="warning",
                message=(
                    f"recovery loop: {len(stuck)} repair/rollback "
                    f"actions without progress past iteration "
                    f"{max(iters) if iters else '?'}"
                ),
                first_iteration=min(iters) if iters else None,
                last_iteration=max(iters) if iters else None,
                evidence=[e.seq for e in stuck],
                data={"actions": len(stuck)},
            )
        )
    return out


def rank_lost(events: List[FlightEvent]) -> List[Anomaly]:
    """Worker processes classified permanently dead.

    Every ``rank_lost`` event (proc-backend failure detector, or the
    sim-side chaos model of the same fault) is a severity-critical
    anomaly per rank: losing a rank is never business as usual, even
    when the supervisor goes on to recover.  Repeated losses of one rank
    merge into a single verdict carrying the loss count.
    """
    by_rank: Dict[int, List[FlightEvent]] = {}
    for e in events:
        if e.kind == "rank_lost" and e.rank is not None:
            by_rank.setdefault(int(e.rank), []).append(e)
    out: List[Anomaly] = []
    for rank in sorted(by_rank):
        evs = by_rank[rank]
        iters = [e.iteration for e in evs if e.iteration is not None]
        colls = sorted({e.data.get("collective", "?") for e in evs})
        out.append(
            Anomaly(
                detector="rank_lost",
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
    return out


def shrink_recovery(events: List[FlightEvent]) -> List[Anomaly]:
    """The supervisor re-partitioned onto fewer ranks after rank loss.

    Each ``recovery`` event with ``action == "shrink"`` is one
    severity-warning anomaly (the run *survived*, but on degraded
    resources — capacity planning should know).
    """
    return [
        Anomaly(
            detector="shrink_recovery",
            severity="warning",
            message=(
                f"shrink-to-survivors: re-partitioned "
                f"{e.data.get('old_ranks')}→{e.data.get('new_ranks')} ranks"
                + (f" at iteration {e.iteration}"
                   if e.iteration is not None else "")
            ),
            first_iteration=e.iteration,
            last_iteration=e.iteration,
            evidence=[e.seq],
            data={"old_ranks": e.data.get("old_ranks"),
                  "new_ranks": e.data.get("new_ranks"),
                  "lost_ranks": e.data.get("lost_ranks")},
        )
        for e in events
        if e.kind == "recovery" and e.data.get("action") == "shrink"
    ]


def detect(events: List[FlightEvent]) -> List[Anomaly]:
    """Every detector's verdicts on *events* (a record in causal order),
    ordered by first evidence seq."""
    found = [a for det in (retry_storm, straggler, checkpoint_churn,
                           rank_lost, shrink_recovery) for a in det(events)]
    return sorted(found, key=lambda a: a.evidence[0])
