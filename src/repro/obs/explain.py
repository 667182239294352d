"""Run diagnosis: turn a flight record into a verdict.

``python -m repro explain`` is the front end; it only replays.  The
engine replays a flight record (in memory, or a JSONL file written by
:class:`~repro.obs.flight.FlightRecorder` — ``repro run --record``
writes one for any driver, with or without a fault preset), runs the
detectors of :mod:`repro.obs.anomaly` over it, correlates each fault verdict with the delay
attribution of :mod:`repro.obs.analytics` when the record carries the
run's ``analytics`` row, and renders:

* a human-readable verdict — "rank 3 is a persistent straggler: 14
  delay faults over iterations 1–5", with the model seconds the fault
  delays cost;
* a machine-readable JSON report (:meth:`RunDiagnosis.to_dict`) for CI
  to assert on (`--expect retry_storm,straggler` / `--expect-clean`);
* optionally a self-contained HTML timeline
  (:func:`repro.obs.render.html_timeline`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .anomaly import detect
from .flight import SCHEMA_VERSION, FlightEvent

__all__ = ["RunDiagnosis", "diagnose"]

_SEVERITY_ORDER = {"critical": 0, "warning": 1, "info": 2}


@dataclass
class RunDiagnosis:
    """The diagnosis of one run record."""

    run_id: str
    driver: Optional[str] = None
    graph: Optional[str] = None
    machine: Optional[str] = None
    nodes: Optional[int] = None
    ranks: Optional[int] = None
    preset: Optional[str] = None
    seed: Optional[int] = None
    n_iterations: Optional[int] = None
    n_components: Optional[int] = None
    completed: bool = True
    #: the supervisor exhausted its budget and replayed on serial LACC
    #: (``driver`` stays the driver the run was started with)
    degraded: bool = False
    error: Optional[str] = None
    n_events: int = 0
    #: :meth:`~repro.obs.anomaly.Anomaly.to_dict` of each verdict, by
    #: first evidence seq, each possibly extended with a ``correlation`` block from analytics
    anomalies: List[Dict[str, Any]] = field(default_factory=list)
    #: :meth:`AnalyticsReport.to_dict` of the run, when available
    analytics: Optional[Dict[str, Any]] = None

    @property
    def healthy(self) -> bool:
        return self.completed and not self.anomalies

    @property
    def worst_severity(self) -> Optional[str]:
        if not self.anomalies:
            return None
        return min(
            (a.get("severity", "info") for a in self.anomalies),
            key=lambda s: _SEVERITY_ORDER.get(s, 99),
        )

    def anomaly_classes(self) -> List[str]:
        """Distinct detector names that fired, causal order preserved."""
        seen: List[str] = []
        for a in self.anomalies:
            det = a.get("detector", "?")
            if det not in seen:
                seen.append(det)
        return seen

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "run_id": self.run_id,
            "driver": self.driver,
            "graph": self.graph,
            "machine": self.machine,
            "nodes": self.nodes,
            "ranks": self.ranks,
            "preset": self.preset,
            "seed": self.seed,
            "n_iterations": self.n_iterations,
            "n_components": self.n_components,
            "completed": self.completed,
            "degraded": self.degraded,
            "error": self.error,
            "n_events": self.n_events,
            "healthy": self.healthy,
            "worst_severity": self.worst_severity,
            "anomaly_classes": self.anomaly_classes(),
            "anomalies": self.anomalies,
            "analytics": self.analytics,
        }

    def render(self) -> str:
        """The human-readable verdict (deterministic, CI-log friendly)."""
        where = []
        if self.graph:
            where.append(self.graph)
        if self.machine:
            where.append(
                f"{self.machine}"
                + (f" nodes={self.nodes}" if self.nodes is not None else "")
                + (f" ranks={self.ranks}" if self.ranks is not None else "")
            )
        if self.preset:
            where.append(f"preset '{self.preset}' seed={self.seed}")
        driver = self.driver
        if driver and self.degraded:
            driver += ", degraded to serial"
        lines = [
            f"run {self.run_id}"
            + (f" [{driver}]" if driver else "")
            + (": " + ", ".join(where) if where else ""),
        ]
        tally = f"{self.n_events} flight events"
        if self.completed:
            done = []
            if self.n_iterations is not None:
                done.append(f"{self.n_iterations} iterations")
            if self.n_components is not None:
                done.append(f"{self.n_components} components")
            lines.append(
                "completed" + (": " + ", ".join(done) if done else "")
                + f"  ({tally})"
            )
        else:
            lines.append(
                f"DID NOT COMPLETE: {self.error or 'unknown error'}"
                + f"  ({tally})"
            )
        lines.append("")
        if not self.anomalies:
            lines.append("verdict: no anomalies detected — the run looks healthy")
            return "\n".join(lines)
        lines.append(
            f"verdict: {len(self.anomalies)} anomal"
            + ("y" if len(self.anomalies) == 1 else "ies")
            + f" ({', '.join(self.anomaly_classes())})"
            + f" — worst severity {self.worst_severity}"
        )
        ranked = sorted(
            self.anomalies,
            key=lambda a: (
                _SEVERITY_ORDER.get(a.get("severity", "info"), 99),
                a.get("first_iteration") if a.get("first_iteration") is not None else -1,
            ),
        )
        for a in ranked:
            sev = a.get("severity", "info")
            mark = {"critical": "!!", "warning": " !", "info": "  "}.get(sev, "  ")
            lines.append(f"{mark} [{a.get('detector', '?')}] {a.get('message', '')}")
            corr = a.get("correlation")
            if corr:
                lines.append(f"     ↳ {corr['note']}")
        return "\n".join(lines)


def _correlate(anomaly: Dict[str, Any], analytics: Dict[str, Any]) -> None:
    """Attach an analytics cross-reference to one fault anomaly (in place).

    The flight record says *when* something went wrong; the analytics
    report says *where the time went*: a retry storm or a straggler is
    joined to the model seconds the fault delays cost, per phase.
    """
    if anomaly.get("detector") not in ("retry_storm", "straggler"):
        return
    phases = analytics.get("phases", [])
    delay = sum(p["delay_seconds"] for p in phases)
    if delay <= 0:
        return
    total = analytics.get("model_seconds") or 0.0
    hottest = max(phases, key=lambda p: p["delay_seconds"])
    anomaly["correlation"] = {
        "delay_seconds": delay,
        "delay_share": delay / total if total > 0 else 0.0,
        "hottest_phase": hottest["phase"],
        "note": (
            f"fault delays/retries cost {delay * 1e3:.3f} ms of model "
            f"time ({100 * delay / total:.1f}% of the run), "
            f"concentrated in '{hottest['phase']}'"
            if total > 0
            else f"fault delays/retries cost {delay * 1e3:.3f} ms"
        ),
    }


def diagnose(events: List[FlightEvent]) -> RunDiagnosis:
    """Replay a flight record into a :class:`RunDiagnosis`.

    *events* is the record, e.g. ``recorder.events`` or
    :func:`~repro.obs.flight.read_flight_jsonl` output.  It must contain
    the ``run_meta`` header; drivers add ``run_start`` / ``iteration`` /
    ``run_end``.  The verdicts are :func:`~repro.obs.anomaly.detect`'s
    on these events (``anomaly`` rows an older record carries are
    ignored), so a record cut short is judged on what it holds.  When it
    carries an ``analytics`` row (the run's
    :meth:`~repro.obs.analytics.AnalyticsReport.to_dict`), fault
    anomalies get a ``correlation`` block tying them to the model seconds
    the fault delays cost.
    """
    if not events:
        raise ValueError("empty flight record: nothing to diagnose")
    d = RunDiagnosis(run_id="?", n_events=len(events))
    d.analytics = next(
        (ev.data["report"] for ev in events if ev.kind == "analytics"), None
    )

    saw_end = False
    for ev in events:
        if ev.kind == "run_meta":
            d.run_id = ev.data.get("run_id", d.run_id)
        elif ev.kind == "run_start":
            # a degraded run's serial replay starts a second run: the
            # first run_start names the driver the run was started with
            d.driver = d.driver or ev.data.get("driver")
            d.graph = ev.data.get("graph", d.graph)
            d.machine = ev.data.get("machine", d.machine)
            d.nodes = ev.data.get("nodes", d.nodes)
            d.ranks = ev.data.get("ranks", d.ranks)
            d.preset = ev.data.get("preset", d.preset)
            d.seed = ev.data.get("seed", d.seed)
        elif ev.kind == "run_end":
            saw_end = True
            d.n_iterations = ev.data.get("n_iterations", d.n_iterations)
            d.n_components = ev.data.get("n_components", d.n_components)
            if ev.data.get("error"):
                d.completed = False
                d.error = str(ev.data["error"])
        elif ev.kind == "recovery" and ev.data.get("action") == "degrade":
            d.degraded = True
        elif ev.kind == "iteration" and ev.iteration is not None:
            d.n_iterations = max(d.n_iterations or 0, ev.iteration)
    if not saw_end and d.error is None:
        # a record that never reached run_end is itself suspicious, but
        # only mark it incomplete when the run clearly started
        if d.driver is not None:
            d.completed = False
            d.error = "flight record ends before run_end (crash or truncation)"
    for anomaly in detect(events):
        a = anomaly.to_dict()
        if d.analytics is not None:
            _correlate(a, d.analytics)
        d.anomalies.append(a)
    return d
