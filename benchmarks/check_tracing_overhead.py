#!/usr/bin/env python
"""Disabled-observability overhead gate (run by CI).

The tracing and flight-record hooks across :mod:`repro.graphblas` /
:mod:`repro.mpisim` / :mod:`repro.combblas` are designed to be free when
off: every instrumented call site costs one module-global lookup, a falsy
check, and nothing else — no allocation, no clock read.  This script pins
that property with three checks built on the shared protocol in
:mod:`repro.obs.overhead` (interleaved rounds, best-of minima, 5% budget
plus a small absolute noise floor):

* **NullTracer** — serial ``lacc`` on a 50k+-vertex RMAT graph with an
  explicitly activated :class:`~repro.obs.tracer.NullTracer` vs. nothing
  activated;
* **NullTracer on lacc_dist** — the Figure 8 driver ``lacc_dist``
  (eukarya on the Edison model, 16 nodes) with an activated
  :class:`~repro.obs.tracer.NullTracer` vs. nothing activated: the
  per-collective spans and cost-model counters must cost nothing when
  no tracer is live.
* **proc obs-off** — literal-SPMD ``lacc_spmd`` on the real-process
  backend with per-rank observability *disabled* (the default) vs. the
  same run with the null obs objects activated at the conductor.  Workers
  must fork with no tracer and no flight record and send no obs frame
  (``not pool.obs`` is asserted), so the only admissible cost is
  the conductor's falsy checks.  Real forked processes schedule noisily,
  so this check gets a larger absolute noise floor.

If someone makes a null object allocate, read a clock, or routes the
disabled path through a real tracer or flight recorder, this check fails.

The same protocol runs at smaller scale inside tier-1
(``tests/obs/test_overhead_gate.py``); this script is the full-scale
version.

Usage:  PYTHONPATH=src python benchmarks/check_tracing_overhead.py
Writes ``benchmarks/results/BENCH_tracing_overhead.json``.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from tableio import RESULTS_DIR  # noqa: E402

SCALE = 16  # 2**16 = 65536 vertices for the serial NullTracer check
EDGE_FACTOR = 8
ROUNDS = 5
TOLERANCE = 0.05
NOISE_FLOOR_S = 0.050
DIST_GRAPH = "eukarya"  # Figure 8's largest protein-similarity input here
DIST_NODES = 16
PROC_GRAPH = "archaea"
PROC_RANKS = 4
PROC_ROUNDS = 3
#: forked-process wall time is scheduler-noisy; the relative budget stays
#: 5% but the absolute floor is what actually gates at this scale
PROC_NOISE_FLOOR_S = 0.200


def main() -> int:
    from repro.core import lacc
    from repro.core.lacc_dist import lacc_dist
    from repro.graphs import corpus
    from repro.graphs.generators import rmat
    from repro.mpisim import EDISON
    from repro.obs import NullTracer, activate
    from repro.obs.overhead import measure_overhead

    g = rmat(SCALE, edge_factor=EDGE_FACTOR, seed=7)
    A = g.to_matrix()
    print(f"RMAT scale {SCALE}: {g.n} vertices, {g.nedges} edges")
    assert g.n >= 50_000

    null_tracer = NullTracer()

    def probe_tracer():
        with activate(null_tracer):
            lacc(A, collect_stats=False)

    tracer_res = measure_overhead(
        baseline=lambda: lacc(A, collect_stats=False),
        probe=probe_tracer,
        name="nulltracer_lacc",
        rounds=ROUNDS,
        tolerance=TOLERANCE,
        noise_floor_s=NOISE_FLOOR_S,
    )
    print(tracer_res.summary())

    gd = corpus.load(DIST_GRAPH)
    Ad = gd.to_matrix()
    print(f"{DIST_GRAPH}: {gd.n} vertices, {gd.nedges} edges "
          f"(lacc_dist, Edison, {DIST_NODES} nodes)")

    def probe_dist():
        with activate(null_tracer):
            lacc_dist(Ad, EDISON, nodes=DIST_NODES)

    dist_res = measure_overhead(
        baseline=lambda: lacc_dist(Ad, EDISON, nodes=DIST_NODES),
        probe=probe_dist,
        name="nulltracer_lacc_dist",
        rounds=ROUNDS,
        tolerance=TOLERANCE,
        noise_floor_s=NOISE_FLOOR_S,
    )
    print(dist_res.summary())

    from repro.core.lacc_spmd import lacc_spmd
    from repro.mpisim import backend as comm_backend
    from repro.parallel.obsband import rank_obs_enabled
    from repro.parallel.pool import get_pool, shutdown_pools

    gp = corpus.load(PROC_GRAPH)
    print(f"{PROC_GRAPH}: {gp.n} vertices, {gp.nedges} edges "
          f"(lacc_spmd, proc backend, {PROC_RANKS} ranks)")
    assert not rank_obs_enabled(), "rank obs must default to off"

    def proc_baseline():
        with comm_backend.use("proc"):
            lacc_spmd(gp, ranks=PROC_RANKS)

    def proc_probe():
        with activate(null_tracer), comm_backend.use("proc"):
            lacc_spmd(gp, ranks=PROC_RANKS)

    # warm the pool so neither side pays the fork+handshake, then pin the
    # null-path invariant: an obs-off pool builds no worker instruments
    proc_baseline()
    with comm_backend.use("proc"):
        assert not get_pool(PROC_RANKS).obs, \
            "obs-off worker pool must not build worker obs instruments"
    proc_res = measure_overhead(
        baseline=proc_baseline,
        probe=proc_probe,
        name="obs_off_lacc_proc",
        rounds=PROC_ROUNDS,
        tolerance=TOLERANCE,
        noise_floor_s=PROC_NOISE_FLOOR_S,
    )
    print(proc_res.summary())
    shutdown_pools()

    record = {
        "check": "observability_overhead",
        "graphs": {
            "serial": {"kind": "rmat", "scale": SCALE,
                       "edge_factor": EDGE_FACTOR,
                       "vertices": g.n, "edges": g.nedges},
            "dist": {"kind": "corpus", "name": DIST_GRAPH,
                     "vertices": gd.n, "edges": gd.nedges,
                     "machine": "Edison", "nodes": DIST_NODES},
            "proc": {"kind": "corpus", "name": PROC_GRAPH,
                     "vertices": gp.n, "edges": gp.nedges,
                     "backend": "proc", "ranks": PROC_RANKS},
        },
        "nulltracer": tracer_res.to_dict(),
        "nulltracer_lacc_dist": dist_res.to_dict(),
        "proc_obs_off": proc_res.to_dict(),
        # kept for older tooling reading the flat schema
        "baseline_seconds": tracer_res.baseline_seconds,
        "nulltracer_seconds": tracer_res.probe_seconds,
        "overhead_fraction": tracer_res.overhead_fraction,
        "tolerance": TOLERANCE,
        "rounds": ROUNDS,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_tracing_overhead.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"[written to {os.path.relpath(out)}]")

    failed = [r.name for r in (tracer_res, dist_res, proc_res)
              if not r.within_budget]
    if failed:
        print(f"FAIL: disabled-mode overhead budget exceeded: {', '.join(failed)}")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
