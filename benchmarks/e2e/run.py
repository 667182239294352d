"""LACC end-to-end benchmark: one workload per process, or all of them.

One workload (the form ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload rmat-serial --seed 1 --seconds 10 --trace 0

times set-up in fresh subprocesses, generates the graph from ``--seed``,
computes the scipy oracle, runs one untimed warm-up rep and then timed reps
for ``--seconds``.  Every rep is checked against the oracle and against the
first rep's bytes (``protein-proc2`` also against one sim-backend run).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
reps, then one traced rep with the :mod:`layers` wrappers installed, and
prints the per-layer metrics.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
(``detail: {...}``) carries quartiles, sample counts and graph sizes.  Any
failed rep makes the exit code 1.

All workloads, each in its own fresh subprocesses, into one file::

    python3 benchmarks/e2e/run.py --seed 1 --out benchmarks/e2e/results/NAME.json

``--smoke`` shrinks every graph and the run length, for the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

# one thread per process: load comes from one process (plus protein-proc2's
# two ranks) on a two-core box.  Set before numpy is imported.
ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "REPRO_KERNELS": "numpy",
    "PYTHONPATH": str(SRC),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_SAMPLES = 5
BASELINE_SAMPLES = 5
CHILD_TIMEOUT_S = 180


def _quartiles(xs):
    """(q1, median, q3) of the samples."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def _median_time(fn, samples: int) -> float:
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ----------------------------------------------------------------------
# set-up and memory
# ----------------------------------------------------------------------
def setup_probe(kind: str) -> None:
    """Body of one set-up sample: import repro and the driver in this
    fresh process (for proc, also start the pool and ping it)."""
    t0 = time.perf_counter()
    workloads.load_driver(kind)
    dt = time.perf_counter() - t0
    if kind == "proc":
        _stop_workers()
    print(json.dumps({"setup_s": dt}))


def _stop_workers() -> None:
    """Close the worker pools, then stop and wait for the resource tracker
    that the shared-memory transport started, so no process outlives us."""
    from multiprocessing import resource_tracker

    from repro.parallel import shutdown_pools

    shutdown_pools()
    resource_tracker._resource_tracker._stop()


def setup_seconds(name: str, samples: int) -> list:
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", name]
    out = []
    for _ in range(samples):
        res = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=CHILD_TIMEOUT_S)
        out.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _reset_peak(pids) -> None:
    # "5" resets VmHWM to the current RSS (Linux >= 4.0)
    for pid in pids:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")


def _peak_mb(pids) -> float:
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024
    return total


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
class Checker:
    """Runs reps, times them, and counts the ones that fail: a rep fails
    when it raises, when its partition differs from the oracle's, or when
    its parents differ from the first rep's (or the reference's) bytes.
    The checks run outside the timed region."""

    def __init__(self, truth, reference=None):
        self.truth = truth
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0

    def rep(self, fn, g):
        """``(seconds, result)`` of one rep; ``result`` is None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = fn(g)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        parents = res.parents
        if self.first is None:
            self.first = parents.copy()
        ok = (
            workloads.same_partition(parents, self.truth)
            and parents.dtype == self.first.dtype
            and parents.tobytes() == self.first.tobytes()
            and (self.reference is None
                 or parents.tobytes() == self.reference.tobytes())
        )
        if not ok:
            print(f"rep {self.attempted}: wrong parents", file=sys.stderr)
            self.failed += 1
        return dt, res


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def _traced_metrics(w, rep, g, checker, wall_s: float) -> dict:
    """The per-layer metrics: one traced rep (plus, for proc, one rep with
    per-rank observability), then the baselines."""
    from layers import STEPS, LayerTimer
    from repro.baselines import fastsv
    from repro.graphs.validate import ground_truth
    from repro.obs.analytics import analyze
    from repro.obs.tracer import Tracer, activate

    tracer = Tracer()
    spans = activate(tracer) if w.kind == "proc" else contextlib.nullcontext()
    with LayerTimer() as lt, spans:
        traced_wall, res = checker.rep(rep, g)
    m = lt.metrics(traced_wall)

    steps = {}
    for sp in tracer.find(cat="step"):
        steps[sp.name] = steps.get(sp.name, 0.0) + sp.duration
    for step in STEPS:
        m[f"core.spmd_{step}_share"] = steps.get(step, 0.0) / traced_wall
    m["core.spmd_words_sent"] = getattr(res, "words_sent", 0)
    m["core.iterations"] = res.n_iterations
    stats = getattr(res, "stats", None)
    m["core.active_vertex_iters"] = (
        sum(it.active_vertices for it in stats.iterations) if stats else 0
    )

    cost = getattr(res, "cost", None)  # only the dist driver prices its run
    model_steps = res.stats.step_totals(model=True) if cost else {}
    for step in STEPS:
        m[f"mpisim.model_{step}_s"] = model_steps.get(step, 0.0)
    m["mpisim.model_s"] = cost.total_seconds if cost else 0.0
    m["mpisim.model_words"] = cost.total_words if cost else 0.0
    m["mpisim.model_messages"] = cost.total_messages if cost else 0.0
    m["mpisim.model_lambda_overall"] = analyze(res).overall_lambda if cost else 0.0

    worker = {"compute": 0.0, "comm": 0.0, "wait": 0.0}
    if w.kind == "proc":
        from repro.mpisim import backend
        from repro.core.lacc_spmd import lacc_spmd
        from repro.obs.analytics import analyze_proc
        from repro.parallel import get_pool, shutdown_pools
        from repro.parallel.obsband import collect_rank_obs, enable_rank_obs

        shutdown_pools()  # the instrumented pool replaces the plain one

        def obs_rep(graph):
            with backend.use("proc"):
                return lacc_spmd(graph, ranks=workloads.RANKS)

        with enable_rank_obs():
            obs_wall, obs_res = checker.rep(obs_rep, g)
            obs = collect_rank_obs(get_pool(workloads.RANKS), merge_registry=False)
        report = analyze_proc(obs, n_iterations=obs_res.n_iterations)
        for ph in report.phases:
            worker["compute"] += ph.compute_seconds / obs_wall
            worker["comm"] += ph.comm_seconds / obs_wall
            worker["wait"] += ph.delay_seconds / obs_wall
    for key, val in worker.items():
        m[f"parallel.worker_{key}_share"] = val

    fastsv_s = _median_time(lambda: fastsv.connected_components(g.n, g.u, g.v),
                            BASELINE_SAMPLES)
    m["baselines.fastsv_s"] = fastsv_s
    m["baselines.scipy_s"] = _median_time(lambda: ground_truth(g), BASELINE_SAMPLES)
    m["baselines.ratio_to_fastsv"] = wall_s / fastsv_s
    m["run.traced_wall_s"] = traced_wall
    m["run.trace_overhead"] = traced_wall / wall_s - 1.0
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Measure one workload; returns (result object, detail dict)."""
    w = workloads.WORKLOADS[name]
    setup = [] if trace else setup_seconds(name, 1 if smoke else SETUP_SAMPLES)
    rep = workloads.load_driver(w.kind)

    from repro.graphs.validate import ground_truth

    g = w.make(seed, smoke)
    truth = ground_truth(g)
    reference = workloads.sim_reference(g) if w.kind == "proc" else None
    checker = Checker(truth, reference)

    pids = [os.getpid()]
    if w.kind == "proc":
        from repro.parallel import get_pool

        pids += [p.pid for p in get_pool(workloads.RANKS).procs]
    _reset_peak(pids)

    warmup_s, _ = checker.rep(rep, g)
    times = []
    t_start = time.perf_counter()
    while not times or time.perf_counter() - t_start < seconds:
        dt, _ = checker.rep(rep, g)
        times.append(dt)
    peak = _peak_mb(pids)
    q1, wall_s, q3 = _quartiles(times)

    detail = {
        "workload": name, "seed": seed, "vertices": g.n, "edges": g.nedges,
        "wall_s_q1": q1, "wall_s_q3": q3, "wall_s_samples": len(times),
        "rep_s": times, "setup_s_samples": setup,
    }
    if trace:
        metrics = _traced_metrics(w, rep, g, checker, wall_s)
        metrics["run.warmup_s"] = warmup_s
    else:
        metrics = {"wall_s": wall_s, "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak}
    if w.kind == "proc":
        _stop_workers()
    detail["error_rate"] = checker.failed / checker.attempted
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return result, detail


# ----------------------------------------------------------------------
# all workloads
# ----------------------------------------------------------------------
def run_all(seed: int, seconds: float, smoke: bool, out: Path) -> int:
    record = {"seed": seed, "seconds": seconds, "smoke": smoke, "workloads": {}}
    status = 0
    for name in workloads.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)] + (["--smoke"] if smoke else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} --trace {trace}: exit {proc.returncode}",
                      file=sys.stderr)
                status = 1
            if not lines or not lines[-1].startswith("{"):
                continue
            res = json.loads(lines[-1])
            detail = next((json.loads(ln[len("detail: "):]) for ln in lines
                           if ln.startswith("detail: ")), {})
            part = "metrics" if trace == 0 else "layers"
            entry[part] = {k: v["value"] for k, v in res["metrics"].items()}
            entry[f"detail_trace{trace}"] = detail
            entry["attempted"] = entry.get("attempted", 0) + res["attempted"]
            entry["failed"] = entry.get("failed", 0) + res["failed"]
        record["workloads"][name] = entry
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = list(workloads.WORKLOADS)
    ap.add_argument("--workload", choices=names,
                    help="run one workload (default: all, into --out)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="length of the timed loop per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny graphs, short runs")
    ap.add_argument("--out", type=Path, help="results file of an all-workload run")
    ap.add_argument("--setup-probe", choices=names, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: repro sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(ENV)

    if args.setup_probe:
        setup_probe(workloads.WORKLOADS[args.setup_probe].kind)
        return 0
    seconds = min(args.seconds, 0.5) if args.smoke else args.seconds
    if args.workload is None:
        if args.out is None:
            ap.error("--out is required without --workload")
        return run_all(args.seed, seconds, args.smoke, args.out)
    result, detail = run_workload(args.workload, args.seed, seconds,
                                  bool(args.trace), args.smoke)
    for key, m in result["metrics"].items():
        print(f"{key:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'attempted':40s} {result['attempted']}")
    print(f"{'failed':40s} {result['failed']}")
    # numpy scalars (vector sizes, counts) serialise as numbers
    print("detail: " + json.dumps(detail, default=float))
    print(json.dumps(result, default=float))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
