"""The benchmark suite behind ``python -m repro bench``.

Runs a fixed set of serial and simulated-distributed LACC benches over
the protein-similarity corpus, collects each run's metrics (model
seconds, words/messages, per-phase seconds, per-step λ from
:mod:`repro.obs.analytics`, wall seconds) into the schema of
:mod:`repro.bench.record`, and optionally accumulates everything into a
live :class:`~repro.obs.metrics.MetricRegistry` for a Prometheus dump.

Quick mode (the CI / tier-1 setting) runs archaea only — a couple of
seconds end to end; the full suite adds eukarya.  All model-side numbers
are deterministic, which is what lets the regression comparator hold
them to 2%.
"""

from __future__ import annotations

import glob
import json
import os
import time
from typing import Any, Dict, Optional

from repro.core import lacc
from repro.core.lacc_dist import lacc_dist
from repro.graphblas import kernels
from repro.graphs import corpus, scale
from repro.mpisim import EDISON
from repro.obs.analytics import analyze
from repro.obs.metrics import MetricRegistry
from repro.obs.tracer import activate

from .record import make_record, metric

__all__ = [
    "run_suite",
    "consolidate_artifacts",
    "SERIAL_GRAPHS",
    "DIST_CONFIGS",
    "SCALE_SERIAL_GRAPHS",
    "PROC_CONFIGS",
    "PROC_RECOVERY_CONFIG",
]

#: (graph, quick) — quick mode keeps only the fast archaea runs
SERIAL_GRAPHS = [("archaea", True), ("eukarya", False)]
DIST_CONFIGS = [
    ("archaea", 4, True),
    ("archaea", 16, True),
    ("eukarya", 16, False),
]
#: production-scale serial benches (repro.graphs.scale), full suite only —
#: the 10⁷-edge record that makes kernel-tier wall numbers meaningful
SCALE_SERIAL_GRAPHS = ["rmat_10m"]
#: (graph, ranks, quick) — real-process backend benches
#: (``repro bench --backend=proc``): measured wall-clock on forked worker
#: processes next to the α–β prediction for the same collective schedule
PROC_CONFIGS = [
    ("archaea", 2, True),
    ("archaea", 4, True),
]
#: (graph, ranks) — the elastic-recovery overhead bench (chaos ``shrink``
#: preset: two real SIGKILLs, shrink-to-survivors, resume from snapshot)
PROC_RECOVERY_CONFIG = ("archaea", 4)


def _bench_serial(name: str, A, in_quick: bool) -> Dict[str, Any]:
    t0 = time.perf_counter()
    res = lacc(A)
    wall = time.perf_counter() - t0
    return {
        "meta": {"kind": "serial", "graph": name, "quick": in_quick,
                 "kernel_tier": kernels.active(),
                 "vertices": A.nrows, "edges": A.nvals // 2},
        "metrics": {
            "wall_seconds": metric(wall, "wall", "s"),
            "iterations": metric(res.n_iterations, "exact"),
            "components": metric(res.n_components, "exact"),
        },
    }


def _bench_dist(name: str, A, nodes: int, in_quick: bool) -> Dict[str, Any]:
    from repro.obs.anomaly import default_detectors
    from repro.obs.flight import FlightRecorder

    # run under the flight recorder: a clean bench must stay anomaly-free,
    # and the regression comparator holds the count to exactly zero
    fr = FlightRecorder(detectors=default_detectors())
    t0 = time.perf_counter()
    with activate(flight=fr):
        res = lacc_dist(A, EDISON, nodes=nodes, run_name=name)
    wall = time.perf_counter() - t0
    fr.finish()
    rep = analyze(res)
    metrics: Dict[str, Any] = {
        "wall_seconds": metric(wall, "wall", "s"),
        "model_seconds": metric(res.cost.total_seconds, "deterministic", "s"),
        "words": metric(res.cost.total_words, "deterministic", "words"),
        "messages": metric(res.cost.total_messages, "deterministic", "msgs"),
        "iterations": metric(res.n_iterations, "exact"),
        "components": metric(res.n_components, "exact"),
        "anomalies": metric(len(fr.anomalies()), "exact"),
        "lambda_overall": metric(rep.overall_lambda, "deterministic"),
    }
    for ph, secs in sorted(res.cost.phase_seconds().items()):
        metrics[f"phase_{ph}_seconds"] = metric(secs, "deterministic", "s")
    for s in rep.steps:
        metrics[f"lambda_{s.step}"] = metric(s.lam, "deterministic")
    return {
        "meta": {"kind": "dist", "graph": name, "quick": in_quick,
                 "kernel_tier": kernels.active(),
                 "machine": "Edison",
                 "nodes": nodes, "ranks": res.ranks,
                 "vertices": A.nrows, "edges": A.nvals // 2},
        "metrics": metrics,
    }


def _bench_proc(name: str, g, ranks: int, in_quick: bool) -> Dict[str, Any]:
    """Measured wall-clock on the real-process backend, recorded next to
    the α–β prediction for the *same* collective schedule.

    The sim run executes under a tracer so the total words/messages of the
    run's collectives can be priced with the single-node α–β constants
    (``CostModel(LAPTOP, ranks, nodes=1)`` — shared-memory bandwidth and a
    fraction of NIC latency, matching what the proc backend actually is);
    the proc run is then timed for real, and the two parent vectors must
    be byte-identical (``byte_identical`` is an exact-class metric, so the
    regression comparator holds it to 1 forever).

    A third run repeats the proc bench with per-rank observability on
    (its own worker pool — the obs-off timing above stays a true null
    path) and distils the worker timelines into *measured* attribution:
    overall λ plus compute/comm/wait seconds from
    :func:`repro.obs.analytics.analyze_proc`.  Those land next to
    ``predicted_comm_seconds`` so ``BENCH_proc.json`` carries the
    measured-vs-predicted pair for every config.
    """
    from repro.core.lacc_spmd import lacc_spmd
    from repro.mpisim import backend as comm_backend
    from repro.mpisim.costmodel import CostModel
    from repro.mpisim.machine import LAPTOP
    from repro.obs.analytics import analyze_proc
    from repro.obs.tracer import Tracer
    from repro.parallel.obsband import collect_rank_obs, enable_rank_obs
    from repro.parallel.pool import get_pool

    tracer = Tracer()
    t0 = time.perf_counter()
    with activate(tracer):
        sim_res = lacc_spmd(g, ranks=ranks)
    sim_wall = time.perf_counter() - t0

    spans = tracer.find(cat="simcomm")
    words = sum(sp.counters.get("words", 0.0) for sp in spans)
    messages = sum(sp.counters.get("messages", 0.0) for sp in spans)
    model = CostModel(LAPTOP, ranks, nodes=1)
    predicted = model.comm_seconds(words, messages)

    with comm_backend.use("proc"):
        t0 = time.perf_counter()
        proc_res = lacc_spmd(g, ranks=ranks)
        proc_wall = time.perf_counter() - t0

    # traced rerun on a separate obs-enabled pool: measured attribution
    with enable_rank_obs(), comm_backend.use("proc"):
        traced_res = lacc_spmd(g, ranks=ranks)
        obs = collect_rank_obs(get_pool(ranks), merge_registry=False)
    rep = analyze_proc(obs, n_iterations=traced_res.n_iterations)
    m_compute = sum(ph.compute_seconds for ph in rep.phases)
    m_comm = sum(ph.comm_seconds for ph in rep.phases)
    m_wait = sum(ph.delay_seconds for ph in rep.phases)

    identical = int(
        sim_res.parents.dtype == proc_res.parents.dtype
        and sim_res.parents.tobytes() == proc_res.parents.tobytes()
    )
    return {
        "meta": {"kind": "proc", "graph": name, "quick": in_quick,
                 "kernel_tier": kernels.active(),
                 "backend": "proc", "machine": LAPTOP.name,
                 "ranks": ranks, "vertices": g.n, "edges": g.nedges},
        "metrics": {
            "wall_seconds": metric(proc_wall, "wall", "s"),
            "sim_wall_seconds": metric(sim_wall, "wall", "s"),
            "predicted_comm_seconds": metric(predicted, "deterministic", "s"),
            "words": metric(words, "deterministic", "words"),
            "messages": metric(messages, "deterministic", "msgs"),
            "collectives": metric(len(spans), "exact"),
            "iterations": metric(proc_res.n_iterations, "exact"),
            "components": metric(proc_res.n_components, "exact"),
            "byte_identical": metric(identical, "exact"),
            # measured attribution from the traced rerun's worker
            # timelines (wall-classed: real scheduling noise)
            "measured_lambda_overall": metric(rep.overall_lambda, "wall"),
            "measured_compute_seconds": metric(m_compute, "wall", "s"),
            "measured_comm_seconds": metric(m_comm, "wall", "s"),
            "measured_wait_seconds": metric(m_wait, "wall", "s"),
        },
    }


def _bench_proc_recovery(name: str, g, ranks: int, in_quick: bool) -> Dict[str, Any]:
    """Elastic-recovery overhead on the real-process backend.

    Three timed runs at the same size: a plain proc run (baseline), a
    supervised fault-free run (isolates the per-iteration checkpoint
    tax), and a supervised run under the ``shrink`` chaos preset — two
    real SIGKILLs, a shrink-to-survivors re-partition, resume from the
    snapshot.  ``recovery_overhead_seconds`` (chaos − baseline, i.e.
    checkpointing + failure detection + shrink + re-partition + replayed
    work) and ``checkpoint_overhead_seconds`` are wall-classed: the
    regression comparator treats them as noisy timings, not invariants.
    The correctness columns (``byte_identical``, ``recoveries``,
    ``shrunk_to``) stay exact-classed.
    """
    from repro.chaos import chaos_run
    from repro.core.lacc_spmd import lacc_spmd
    from repro.mpisim import backend as comm_backend
    from repro.recovery import Supervisor, SupervisorConfig

    with comm_backend.use("proc"):
        t0 = time.perf_counter()
        plain = lacc_spmd(g, ranks=ranks)
        plain_wall = time.perf_counter() - t0

        sup = Supervisor(config=SupervisorConfig(checkpoint_interval=1))
        t0 = time.perf_counter()
        sup.run(lacc_spmd, g, ranks=ranks)
        supervised_wall = time.perf_counter() - t0

    report = chaos_run(
        g, driver="spmd", ranks=ranks, preset="shrink", seed=0,
        backend="proc", flight=False,
    )
    return {
        "meta": {"kind": "proc_recovery", "graph": name, "quick": in_quick,
                 "kernel_tier": kernels.active(), "backend": "proc",
                 "ranks": ranks, "vertices": g.n, "edges": g.nedges,
                 "preset": "shrink"},
        "metrics": {
            "wall_seconds": metric(report.wall_seconds, "wall", "s"),
            "baseline_wall_seconds": metric(plain_wall, "wall", "s"),
            "checkpoint_overhead_seconds": metric(
                max(supervised_wall - plain_wall, 0.0), "wall", "s"),
            "recovery_overhead_seconds": metric(
                max(report.wall_seconds - plain_wall, 0.0), "wall", "s"),
            "recoveries": metric(report.recoveries, "exact"),
            "shrunk_to": metric(report.shrunk_to or ranks, "exact"),
            "iterations": metric(report.iterations, "exact"),
            "components": metric(report.components, "exact"),
            "byte_identical": metric(int(report.byte_identical), "exact"),
            "resumed": metric(int(report.resumed), "exact"),
        },
    }


def run_suite(
    quick: bool = True,
    registry: Optional[MetricRegistry] = None,
    progress=None,
    backend: str = "sim",
) -> Dict[str, Any]:
    """Run the suite and return a schema-versioned record dict.

    When *registry* is given, every run executes under it so the caller
    can dump the accumulated kernel/collective counters afterwards
    (``python -m repro bench --prom``).  *progress* is an optional
    ``callable(str)`` for line-by-line status (the CLI passes ``print``).

    ``backend="proc"`` runs the real-process benches (:data:`PROC_CONFIGS`)
    *instead of* the simulated suite: measured wall-clock on forked worker
    processes next to the α–β prediction.  The record is kept separate
    from the sim suite (the CLI writes it to ``BENCH_proc.json``) so the
    committed ``BENCH_lacc.json`` baseline stays backend-pure.
    """
    if backend not in ("sim", "proc"):
        raise ValueError(f"unknown bench backend {backend!r} (sim or proc)")
    say = progress or (lambda _msg: None)
    benches: Dict[str, Dict[str, Any]] = {}
    graphs = {}

    def mat(name: str):
        if name not in graphs:
            graphs[name] = corpus.load(name).to_matrix()
        return graphs[name]

    with activate(metrics=registry):
        if backend == "proc":
            for gname, ranks, in_quick in PROC_CONFIGS:
                if quick and not in_quick:
                    continue
                key = f"lacc_proc_{gname}_r{ranks}"
                say(f"bench {key} (real worker processes) ...")
                benches[key] = _bench_proc(gname, corpus.load(gname), ranks, in_quick)
            gname, ranks = PROC_RECOVERY_CONFIG
            key = f"lacc_proc_recovery_{gname}_r{ranks}"
            say(f"bench {key} (chaos shrink + elastic recovery) ...")
            benches[key] = _bench_proc_recovery(
                gname, corpus.load(gname), ranks, in_quick=True
            )
            rec = make_record(benches, quick=quick)
            rec["backend"] = "proc"
            return rec
        for gname, in_quick in SERIAL_GRAPHS:
            if quick and not in_quick:
                continue
            key = f"lacc_serial_{gname}"
            say(f"bench {key} ...")
            benches[key] = _bench_serial(gname, mat(gname), in_quick)
        if not quick:
            for gname in SCALE_SERIAL_GRAPHS:
                key = f"lacc_serial_{gname}"
                say(f"bench {key} (10^7-edge scale graph, full suite only) ...")
                A = scale.build(gname).to_matrix()
                benches[key] = _bench_serial(gname, A, in_quick=False)
                del A  # free ~10^7-edge CSR before the dist benches
        for gname, nodes, in_quick in DIST_CONFIGS:
            if quick and not in_quick:
                continue
            key = f"lacc_dist_{gname}_n{nodes}"
            say(f"bench {key} ...")
            benches[key] = _bench_dist(gname, mat(gname), nodes, in_quick)
    return make_record(benches, quick=quick)


def consolidate_artifacts(results_dir: str) -> Dict[str, Any]:
    """Parse every ``BENCH_*.json`` under *results_dir* for embedding in
    the consolidated record (``run_all.py`` / ``bench --artifacts``)."""
    out: Dict[str, Any] = {}
    for path in sorted(glob.glob(os.path.join(results_dir, "BENCH_*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            with open(path) as fh:
                out[name] = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:  # keep going
            out[name] = {"error": f"unreadable: {exc}"}
    return out
