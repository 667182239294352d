"""Per-rank load-imbalance analytics for distributed LACC runs.

The paper's Figure 3 shows why LACC's indexed accesses need skew
handling: a handful of ranks receive most of the parent-lookup requests.
The bench scripts used to recompute that diagnostic ad hoc; this module
promotes it to an API.  :func:`analyze` turns a
:class:`~repro.core.lacc.LACCResult` with a cost model into an
:class:`AnalyticsReport`:

* **λ per LACC step** — max/mean received requests per rank, aggregated
  over all iterations of each step (cond_hook / starcheck / uncond_hook /
  shortcut), from the run's :class:`~repro.combblas.indexing.RoutingReport`
  records.  λ = 1 is perfect balance; the bulk-synchronous idle fraction
  of the average rank is ``1 − 1/λ``.
* **compute vs. comm vs. delay per phase** — from the cost model's event
  timeline when the run was traced (``trace_comm=True``), else from an
  α–β reconstruction of each phase's aggregate words/messages.
* **straggler attribution** — the worst (step, rank) pairs, i.e. which
  rank would hold up which superstep on a real machine.

``python -m repro run --analyze`` wraps this behind the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.mpisim.costmodel import CostModel

__all__ = [
    "StepImbalance",
    "PhaseBreakdown",
    "AnalyticsReport",
    "analyze",
    "analyze_proc",
]


@dataclass(frozen=True)
class StepImbalance:
    """Request-routing balance of one LACC step, summed over the run."""

    step: str
    calls: int  # routed batches (≈ iterations touching the step)
    total_requests: float  # requests received across all ranks
    lam: float  # max/mean received per rank (λ, Figure 3's skew)
    worst_rank: int  # rank receiving the most requests
    worst_share: float  # its share of total_requests

    @property
    def idle_fraction(self) -> float:
        """Fraction of the superstep the average rank waits on the
        critical-path rank (bulk-synchronous): ``1 − 1/λ``."""
        return 1.0 - 1.0 / self.lam if self.lam > 0 else 0.0


@dataclass(frozen=True)
class PhaseBreakdown:
    """Model-seconds of one cost phase split by charge kind."""

    phase: str
    seconds: float
    compute_seconds: float
    comm_seconds: float
    delay_seconds: float  # fault delays / retry backoff (traced runs)
    share: float  # of the run's total model seconds


@dataclass
class AnalyticsReport:
    """Load-imbalance and time-attribution summary of one run."""

    machine: str
    nodes: int
    ranks: int
    n_iterations: int
    model_seconds: float
    steps: List[StepImbalance] = field(default_factory=list)
    phases: List[PhaseBreakdown] = field(default_factory=list)
    #: static edge distribution λ (needs the DistMatrix; None if unknown)
    edges_lambda: Optional[float] = None
    #: True when the kind split came from a traced event timeline rather
    #: than the α–β reconstruction fallback
    from_event_trace: bool = False
    #: where the numbers come from: ``None`` for the α–β/simulated paths,
    #: ``"measured-proc"`` when built from real worker timelines
    #: (:func:`analyze_proc`) — there λ and the phase split are wall-clock
    #: measurements, total_requests counts received bytes, and the delay
    #: column is measured receive-side *wait*
    source: Optional[str] = None

    @property
    def overall_lambda(self) -> float:
        """Request-weighted mean λ across steps (1.0 when no routing)."""
        tot = sum(s.total_requests for s in self.steps)
        if tot <= 0:
            return 1.0
        return sum(s.lam * s.total_requests for s in self.steps) / tot

    @property
    def worst_step(self) -> Optional[StepImbalance]:
        return max(self.steps, key=lambda s: s.lam, default=None)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "machine": self.machine,
            "nodes": self.nodes,
            "ranks": self.ranks,
            "n_iterations": self.n_iterations,
            "model_seconds": self.model_seconds,
            "overall_lambda": self.overall_lambda,
            "edges_lambda": self.edges_lambda,
            "from_event_trace": self.from_event_trace,
            "source": self.source,
            "steps": [
                {
                    "step": s.step,
                    "calls": s.calls,
                    "total_requests": s.total_requests,
                    "lambda": s.lam,
                    "worst_rank": s.worst_rank,
                    "worst_share": s.worst_share,
                    "idle_fraction": s.idle_fraction,
                }
                for s in self.steps
            ],
            "phases": [
                {
                    "phase": p.phase,
                    "seconds": p.seconds,
                    "compute_seconds": p.compute_seconds,
                    "comm_seconds": p.comm_seconds,
                    "delay_seconds": p.delay_seconds,
                    "share": p.share,
                }
                for p in self.phases
            ],
        }

    def render(self) -> str:
        """Deterministic plain-text report (CI-log friendly)."""
        measured = self.source == "measured-proc"
        time_label = "measured wall time" if measured else "model time"
        step_header = (
            "step imbalance (measured rank-seconds; requests = bytes received):"
            if measured
            else "step imbalance (received requests per rank):"
        )
        worst_of = "of step time" if measured else "of requests"
        lines = [
            f"per-rank analytics: {self.machine}, nodes={self.nodes}, "
            f"ranks={self.ranks}, iterations={self.n_iterations}",
            f"{time_label} {self.model_seconds * 1e3:.3f} ms, "
            f"overall λ {self.overall_lambda:.3f}"
            + (
                f", static edge λ {self.edges_lambda:.3f}"
                if self.edges_lambda is not None
                else ""
            ),
            "",
            step_header,
            f"  {'step':<12} {'calls':>5} {'requests':>10} {'λ':>7} "
            f"{'idle%':>6}  worst rank",
        ]
        for s in self.steps:
            lines.append(
                f"  {s.step:<12} {s.calls:>5} {s.total_requests:>10.0f} "
                f"{s.lam:>7.3f} {100 * s.idle_fraction:>5.1f}%  "
                f"r{s.worst_rank} ({100 * s.worst_share:.1f}% {worst_of})"
            )
        if not self.steps:
            lines.append("  (no routed requests recorded)")
        if measured:
            src = "measured worker timelines"
        elif self.from_event_trace:
            src = "event timeline"
        else:
            src = "α–β reconstruction"
        wait_col = "wait%" if measured else "delay%"
        lines += ["", f"phase time breakdown ({src}):",
                  f"  {'phase':<12} {'ms':>9} {'%':>6} {'compute%':>8} "
                  f"{'comm%':>6} {wait_col:>7}"]
        for p in self.phases:
            tot = p.seconds or 1.0
            lines.append(
                f"  {p.phase:<12} {p.seconds * 1e3:>9.3f} "
                f"{100 * p.share:>6.1f} {100 * p.compute_seconds / tot:>8.1f} "
                f"{100 * p.comm_seconds / tot:>6.1f} "
                f"{100 * p.delay_seconds / tot:>7.1f}"
            )
        worst = self.worst_step
        if worst is not None and worst.lam > 1.0:
            lines += [
                "",
                f"straggler: rank {worst.worst_rank} dominates "
                f"'{worst.step}' (λ={worst.lam:.3f}) — the average rank "
                f"idles {100 * worst.idle_fraction:.1f}% of that superstep",
            ]
        return "\n".join(lines)


def _kind_split(cost: CostModel) -> Dict[str, Dict[str, float]]:
    """Per-phase seconds by charge kind.

    Traced runs give the exact split from the event timeline.  Untraced
    runs fall back to the α–β identity: a phase's comm seconds are
    ``β·words + α·messages`` and the rest is compute (fault delays, which
    carry no words, land in the compute bucket of the fallback).
    """
    out: Dict[str, Dict[str, float]] = {}
    if cost.events:
        for ev in cost.events:
            b = out.setdefault(ev.phase, {"compute": 0.0, "comm": 0.0, "delay": 0.0})
            if ev.words > 0 or ev.messages > 0:
                b["comm"] += ev.seconds
            elif ev.kind.startswith("fault") or ev.kind == "delay":
                b["delay"] += ev.seconds
            else:
                # includes compute charged inside a collective's kind()
                # context (e.g. reduce-scatter local combines), which the
                # timeline labels with the collective's name
                b["compute"] += ev.seconds
        return out
    for name, p in cost.phases.items():
        comm = min(cost.comm_seconds(p.words, p.messages), p.seconds)
        out[name] = {
            "compute": max(p.seconds - comm, 0.0),
            "comm": comm,
            "delay": 0.0,
        }
    return out


def analyze(result, edges_per_rank: Optional[np.ndarray] = None) -> AnalyticsReport:
    """Build an :class:`AnalyticsReport` from a distributed LACC result.

    Parameters
    ----------
    result:
        A :class:`~repro.core.lacc.LACCResult` whose run charged an α–β
        ``cost`` model: every ``lacc_dist`` run, or a ``lacc_spmd`` /
        ``lacc_2d`` run given one.  λ per step reads its ``routing``
        records, which only ``lacc_dist`` fills.  Runs made with
        ``trace_comm=True`` get an exact compute/comm/delay split; others
        use the α–β reconstruction.
    edges_per_rank:
        Optional static edge distribution (``DistMatrix.edges_per_rank``)
        for the λ of the 2-D partition itself, reported next to the
        dynamic request λ.

    Raises
    ------
    ValueError
        When *result* carries no cost model (a serial run, or a literal
        run without one has no α–β attribution to analyze).
    """
    if result.cost is None:
        raise ValueError(
            "result has no cost model to analyze — per-rank analytics "
            "needs a run that charged one, such as lacc_dist's (serial "
            "and unpriced literal SPMD runs carry no α–β cost data)"
        )
    cost: CostModel = result.cost
    steps: List[StepImbalance] = []
    by_step: Dict[str, List[np.ndarray]] = {}
    for _it, step, rep in result.routing:
        by_step.setdefault(step, []).append(rep.received_per_rank)
    for step in sorted(by_step):
        agg = np.sum(np.vstack(by_step[step]), axis=0).astype(float)
        total = float(agg.sum())
        mean = agg.mean() if agg.size else 0.0
        lam = float(agg.max() / mean) if mean > 0 else 1.0
        worst = int(np.argmax(agg)) if agg.size else 0
        steps.append(
            StepImbalance(
                step=step,
                calls=len(by_step[step]),
                total_requests=total,
                lam=lam,
                worst_rank=worst,
                worst_share=float(agg[worst] / total) if total > 0 else 0.0,
            )
        )

    split = _kind_split(cost)
    total_s = cost.total_seconds or 1.0
    phases = [
        PhaseBreakdown(
            phase=name,
            seconds=p.seconds,
            compute_seconds=split.get(name, {}).get("compute", 0.0),
            comm_seconds=split.get(name, {}).get("comm", 0.0),
            delay_seconds=split.get(name, {}).get("delay", 0.0),
            share=p.seconds / total_s,
        )
        for name, p in sorted(
            cost.phases.items(), key=lambda kv: kv[1].seconds, reverse=True
        )
    ]

    lam_e: Optional[float] = None
    if edges_per_rank is not None:
        e = np.asarray(edges_per_rank, dtype=float)
        mean = e.mean() if e.size else 0.0
        lam_e = float(e.max() / mean) if mean > 0 else 1.0

    return AnalyticsReport(
        machine=cost.machine.name,
        nodes=cost.nodes,
        ranks=result.ranks,
        n_iterations=result.n_iterations,
        model_seconds=cost.total_seconds,
        steps=steps,
        phases=phases,
        edges_lambda=lam_e,
        from_event_trace=bool(cost.events),
    )


def analyze_proc(obs_result, n_iterations: int = 0) -> AnalyticsReport:
    """Measured per-rank analytics from real worker timelines.

    Where :func:`analyze` prices a simulated run with the α–β model,
    this builds the same report shape from the proc backend's per-rank
    tracers (:class:`~repro.parallel.obsband.RankObsResult`) — the
    repo's first *measured* counterpart to the predicted numbers:

    * **λ per step** = max/mean of per-rank wall seconds spent in that
      step's collectives (aggregated over the run);
    * **compute / comm / wait** per step, exact by construction: a
      collective span's ``ring_send`` children are transport time
      (comm), its ``ring_recv`` children are blocked-on-peer time
      (wait), and the remainder — reduction folds, concatenation,
      packing — is compute;
    * ``total_requests`` counts received payload bytes (the measured
      analogue of the routing report's request counts).

    Steps are the driver's ``cat="step"`` spans as stamped into worker
    command frames; collectives issued outside any step (e.g. the
    result gather) aggregate under ``"(untagged)"``.
    """
    ranks = int(obs_result.size)
    if ranks <= 0 or not obs_result.tracers:
        raise ValueError("no rank timelines to analyze (empty RankObsResult)")
    sec: Dict[str, np.ndarray] = {}
    comm: Dict[str, np.ndarray] = {}
    wait: Dict[str, np.ndarray] = {}
    rbytes: Dict[str, np.ndarray] = {}
    calls: Dict[str, int] = {}

    def row(d: Dict[str, np.ndarray], step: str) -> np.ndarray:
        return d.setdefault(step, np.zeros(ranks))

    for r, tr in obs_result.tracers.items():
        per_rank_calls: Dict[str, int] = {}
        for sp in tr.find(cat="collective"):
            step = sp.attrs.get("step") or "(untagged)"
            c = sum(ch.duration for ch in sp.children if ch.name == "ring_send")
            w = sum(ch.duration for ch in sp.children if ch.name == "ring_recv")
            b = sum(
                ch.counters.get("bytes", 0.0)
                for ch in sp.children
                if ch.name == "ring_recv"
            )
            row(sec, step)[r] += sp.duration
            row(comm, step)[r] += min(c, sp.duration)
            row(wait, step)[r] += min(w, sp.duration)
            row(rbytes, step)[r] += b
            per_rank_calls[step] = per_rank_calls.get(step, 0) + 1
        for s, n in per_rank_calls.items():
            calls[s] = max(calls.get(s, 0), n)

    steps: List[StepImbalance] = []
    phases: List[PhaseBreakdown] = []
    total_mean = sum(float(v.mean()) for v in sec.values()) or 1.0
    for step in sorted(sec):
        s = sec[step]
        mean = float(s.mean())
        lam = float(s.max() / mean) if mean > 0 else 1.0
        worst = int(np.argmax(s))
        tot_s = float(s.sum())
        steps.append(
            StepImbalance(
                step=step,
                calls=calls.get(step, 0),
                total_requests=float(rbytes[step].sum()),
                lam=lam,
                worst_rank=worst,
                worst_share=float(s[worst] / tot_s) if tot_s > 0 else 0.0,
            )
        )
        comm_m = float(comm[step].mean())
        wait_m = float(wait[step].mean())
        phases.append(
            PhaseBreakdown(
                phase=step,
                seconds=mean,
                compute_seconds=max(mean - comm_m - wait_m, 0.0),
                comm_seconds=comm_m,
                delay_seconds=wait_m,
                share=mean / total_mean,
            )
        )
    phases.sort(key=lambda p: p.seconds, reverse=True)
    return AnalyticsReport(
        machine="proc-shm",
        nodes=1,
        ranks=ranks,
        n_iterations=int(n_iterations),
        model_seconds=sum(p.seconds for p in phases),
        steps=steps,
        phases=phases,
        from_event_trace=True,
        source="measured-proc",
    )
