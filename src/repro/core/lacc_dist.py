"""Distributed LACC over the simulated machine (§V of the paper).

The simulator executes the *identical* algorithm as :func:`repro.core.lacc`
— the serial step functions compute every value on the (permuted) parent
array, so results are exact — while an α–β
:class:`~repro.mpisim.costmodel.CostModel` prices each primitive as it
would run on a ``√p × √p`` CombBLAS process grid:

* ``GrB_mxv`` → two-stage SpMV/SpMSpV (column-group allgather + row-group
  reduce-scatter / sparse all-to-all), work ∝ edges incident to active
  columns (:meth:`repro.combblas.distmatrix.DistMatrix.charge_mxv`);
* ``GrB_extract`` / ``GrB_assign`` → request routing with skew detection,
  broadcast offload and sparse hypercube all-to-all
  (:mod:`repro.combblas.indexing`) — the per-rank request histograms are
  recorded per iteration, which is exactly Figure 3;
* per-iteration step times land in ``IterationStats.step_model_seconds``,
  the series behind Figures 4, 5, 6 and 8.

Configuration follows §VI-A: ``t`` threads per MPI process (6 on Edison,
16 on Cori → 4 processes/node on both), and the largest square process
grid that fits ``cores/t`` ranks.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.combblas.distmatrix import DistMatrix
from repro.combblas.indexing import RoutingReport, charge_assign, charge_extract
from repro.graphblas import Matrix
from repro.graphblas.sorting import count_distinct
from repro.mpisim.costmodel import CostModel
from repro.mpisim.grid import ProcessGrid
from repro.mpisim.machine import MachineModel
from repro.obs.flight import flight_recorder as _freg
from repro.obs.metrics import metrics_registry as _mreg
from repro.obs.tracer import NULL_TRACER, Tracer, activate

from .convergence import ActiveSet, converged_star_vertices
from .hooking import HookReport, cond_hook, uncond_hook
from .shortcut import shortcut
from .snapshot import IterationHook, IterationSnapshot, validate_initial_parents
from .starcheck import starcheck
from .stats import IterationStats, LACCStats

__all__ = ["lacc_dist", "DistLACCResult", "grid_for"]


class _StepSpan:
    """Step-span context that records host time as a ``wall_seconds``
    counter next to the simulated-clock span extent (model vs. actual
    side by side)."""

    __slots__ = ("_ctx", "_span", "_t0")

    def __init__(self, tracer, name: str):
        self._ctx = tracer.span(name, "step")

    def __enter__(self):
        self._t0 = time.perf_counter()
        self._span = self._ctx.__enter__()
        return self._span

    def __exit__(self, exc_type, exc, tb):
        self._span.add("wall_seconds", time.perf_counter() - self._t0)
        return self._ctx.__exit__(exc_type, exc, tb)


@dataclass
class DistLACCResult:
    """Output of a simulated distributed LACC run."""

    parents: np.ndarray  # component labels in ORIGINAL vertex space
    n_components: int
    n_iterations: int
    stats: LACCStats
    cost: CostModel
    machine: MachineModel
    nodes: int
    ranks: int
    #: (iteration, step, report) for every distributed extract/assign —
    #: Figure 3 reads the starcheck/shortcut extract entries
    routing: List[Tuple[int, str, RoutingReport]] = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        return self.cost.total_seconds

    @property
    def labels(self) -> np.ndarray:
        from repro.graphs.validate import canonical_labels

        return canonical_labels(self.parents)


def grid_for(machine: MachineModel, nodes: int) -> Tuple[int, int]:
    """(ranks, grid side) for a node count: the largest square grid that
    fits ``nodes · processes_per_node`` ranks (§VI-A)."""
    ranks = machine.ranks(nodes)
    side = max(math.isqrt(ranks), 1)
    return side * side, side


def lacc_dist(
    A: Matrix,
    machine: MachineModel,
    nodes: int = 1,
    use_sparsity: bool = True,
    permute: bool = True,
    use_broadcast_offload: bool = True,
    use_hypercube: bool = True,
    vector_distribution: str = "block",
    max_iterations: Optional[int] = None,
    seed: int = 0,
    trace_comm: bool = False,
    tracer: Optional[Tracer] = None,
    faults=None,
    cost: Optional[CostModel] = None,
    initial_parents: Optional[np.ndarray] = None,
    initial_active: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    on_iteration: Optional[IterationHook] = None,
    run_name: Optional[str] = None,
) -> DistLACCResult:
    """Run LACC on the simulated machine.

    Parameters mirror :func:`repro.core.lacc` plus the machine/topology
    configuration and the §V-B communication toggles (exposed so the
    ablation benchmarks can switch each optimisation off).
    ``vector_distribution="cyclic"`` enables the paper's §VII future-work
    layout, spreading indexing hot spots across ranks.

    ``faults`` takes a :class:`repro.faults.FaultPlan`: the analytic
    collectives then price straggler delays, validation retries and
    backoff into the cost model (visible as ``retry`` spans on the
    simulated clock when traced), and a permanent fault raises
    :class:`repro.faults.CollectiveError` rather than ever mislabelling
    a component — the results, when the run completes, are exact.

    When a fresh :class:`repro.obs.Tracer` is passed via ``tracer``, its
    clock is rebound to the cost model's simulated clock so span extents
    are α–β model seconds (the timeline of the machine being simulated);
    each step span additionally carries a ``wall_seconds`` counter — the
    host time spent computing the step's values — so model and actual
    time sit side by side.  The tracer is activated for the run, nesting
    GraphBLAS-primitive and collective spans under each step.

    When a flight recorder is active (:func:`repro.obs.flight.
    activate_flight`), the driver stamps the run record: ``run_start``
    (topology, fault preset, static partition λ), per-iteration
    ``iteration`` events (active vertices, hooks — what the convergence
    detectors watch), per-routed-step ``step`` events (λ = max/mean
    received requests, worst rank — Figure 3's skew, live), and
    ``run_end``; the recorder's clock is rebound to the simulated clock
    and its ambient iteration coordinate tracks the loop, so fault and
    retry events recorded deep inside the collectives inherit the right
    iteration.  ``run_name`` labels the record (the CLI passes the graph
    name).

    ``cost`` supplies an existing :class:`~repro.mpisim.costmodel.CostModel`
    to charge into instead of a fresh one — :class:`repro.recovery.Supervisor`
    passes one master model across restart attempts so the simulated clock
    runs continuously through recovery.  ``initial_parents`` /
    ``initial_active`` / ``start_iteration`` / ``on_iteration`` are the
    checkpoint-resume hooks of :mod:`repro.core.snapshot`; snapshot parents
    are reported in **original** vertex space (un-permuted), so they are
    interchangeable with every other driver's.
    """
    if A.nrows != A.ncols or not A.is_symmetric:
        raise ValueError("LACC requires a square symmetric adjacency matrix")
    n = A.nrows
    nprocs, side = grid_for(machine, nodes)
    grid = ProcessGrid(nprocs, n, distribution=vector_distribution)
    dmat = DistMatrix(A, grid, permute=permute, seed=seed)
    if cost is None:
        cost = CostModel(machine, nprocs, nodes, trace=trace_comm, faults=faults)
    fr = _freg()
    if fr:
        fr.bind_clock(lambda: cost.total_seconds)
        fr.record(
            "run_start",
            driver="dist",
            graph=run_name,
            n=n,
            nnz=A.nvals,
            machine=machine.name,
            nodes=nodes,
            ranks=nprocs,
            preset=faults.name if faults is not None else None,
            seed=faults.seed if faults is not None else None,
            partition_lambda=dmat.load_imbalance(),
            partition_worst_rank=int(np.argmax(dmat.edges_per_rank)),
        )
    stats = LACCStats(n_vertices=n)
    tr = tracer if tracer is not None else NULL_TRACER
    if tracer is not None and not tracer.roots and tracer.current is None:
        # fresh tracer: span extents become simulated seconds
        tracer.clock = lambda: cost.total_seconds
    run_ctx = activate(tr) if tracer is not None else contextlib.nullcontext()
    routing: List[Tuple[int, str, RoutingReport]] = []
    route_kw = dict(
        use_broadcast_offload=use_broadcast_offload, use_hypercube=use_hypercube
    )
    if max_iterations is None:
        max_iterations = 4 * max(int(np.ceil(np.log2(max(n, 2)))), 1) + 8

    Ap = dmat.A  # permuted adjacency
    if initial_parents is not None:
        f = dmat.to_permuted_parents(validate_initial_parents(initial_parents, n))
    else:
        f = np.arange(n, dtype=np.int64)
    active = ActiveSet(n, enabled=use_sparsity)
    if initial_active is not None and use_sparsity:
        act0 = np.asarray(initial_active, dtype=bool)
        if act0.shape != (n,):
            raise ValueError(f"initial_active must have shape ({n},)")
        active._active = dmat.to_permuted_bitmap(act0)
    if n == 0 or Ap.nvals == 0:
        labels0 = dmat.to_original_labels(f)
        ncomp0 = count_distinct(labels0)
        if fr:
            fr.record("run_end", n_iterations=start_iteration,
                      n_components=ncomp0)
        return DistLACCResult(
            labels0, ncomp0, start_iteration, stats, cost,
            machine, nodes, nprocs, routing,
        )
    if use_sparsity:
        active._active &= ~(Ap.row_degrees() == 0)

    def snapshot() -> dict:
        return {k: v.seconds for k, v in cost.phases.items()}

    def add_step_delta(stats_dict: dict, before: dict) -> None:
        for k, v in cost.phases.items():
            d = v.seconds - before.get(k, 0.0)
            if d > 0:
                stats_dict[k] = stats_dict.get(k, 0.0) + d

    def active_bitmap() -> Optional[np.ndarray]:
        return active.mask

    def record_routed(it: int, phase: str, rep: RoutingReport) -> None:
        """Keep the routing report and, when a flight recorder is on,
        stamp its λ = max/mean skew as a ``step`` event (live Figure 3)."""
        routing.append((it, phase, rep))
        if fr:
            recv = np.asarray(rep.received_per_rank, dtype=float)
            mean = recv.mean() if recv.size else 0.0
            fr.record(
                "step",
                iteration=it,
                step=phase,
                lam=float(recv.max() / mean) if mean > 0 else 1.0,
                worst_rank=int(np.argmax(recv)) if recv.size else 0,
                requests=float(recv.sum()),
            )

    def charge_hook(report: HookReport, in_cols: Optional[np.ndarray], phase: str, it: int):
        """Price one hooking phase: mxv + eWise filtering + hook scatter."""
        dmat.charge_mxv(cost, in_cols, phase)
        scope = int(np.count_nonzero(in_cols)) if in_cols is not None else n
        cost.charge_compute(scope / max(nprocs, 1), phase)  # eWise/extract
        if report.roots.size:
            rep = charge_assign(
                grid, cost, report.roots, report.hook_vertices, phase, **route_kw
            )
            record_routed(it, phase, rep)

    def charge_starcheck(phase: str, it: int):
        """Price one starcheck: grandparent extract (the Figure 3 hot
        spot), nonstar marking, level-2 fixup."""
        mask = active_bitmap()
        idx = np.arange(n) if mask is None else np.flatnonzero(mask)
        if idx.size == 0:
            return
        rep = charge_extract(grid, cost, f[idx], idx, phase, **route_kw)
        record_routed(it, phase, rep)
        # marking + fixup are one more assign + extract over the scope
        charge_assign(grid, cost, f[idx], idx, phase, **route_kw)
        cost.charge_compute(2 * idx.size / max(nprocs, 1), phase)

    def step_span(name: str):
        """Open a step span that also measures host ('wall') seconds."""
        return _StepSpan(tr, name)

    iteration = start_iteration
    with run_ctx, tr.span("lacc_dist", "run", n=n, nnz=Ap.nvals,
                          machine=machine.name, nodes=nodes, ranks=nprocs,
                          **({"run_id": fr.run_id} if fr else {})):
      star = starcheck(f, active.mask)
      while True:
        iteration += 1
        if iteration - start_iteration > max_iterations:
            raise RuntimeError("distributed LACC failed to converge (bug)")
        if fr:
            # faults/retries recorded deep inside the collectives inherit
            # this coordinate without threading it through call signatures
            fr.set_coords(iteration=iteration)
        it_stats = IterationStats(iteration=iteration, active_vertices=active.active_count)
        _, words0, msgs0 = cost.totals()

        with tr.span("iteration", "iteration", iteration=iteration) as it_span:
            before = snapshot()
            with step_span("cond_hook"):
                rep = cond_hook(Ap, f, star, active.mask)
                it_stats.cond_hooks = rep.count
                charge_hook(rep, active_bitmap(), "cond_hook", iteration)
            add_step_delta(it_stats.step_model_seconds, before)

            before = snapshot()
            with step_span("starcheck"):
                star = starcheck(f, active.mask)
                charge_starcheck("starcheck", iteration)

            nonstar_active = ~star
            if active.mask is not None:
                nonstar_active = nonstar_active & active.mask
            add_step_delta(it_stats.step_model_seconds, before)

            before = snapshot()
            with step_span("uncond_hook"):
                rep = uncond_hook(Ap, f, star, active.mask)
                it_stats.uncond_hooks = rep.count
                in_cols = nonstar_active if active.mask is not None else None
                charge_hook(rep, in_cols, "uncond_hook", iteration)
            add_step_delta(it_stats.step_model_seconds, before)

            before = snapshot()
            with step_span("starcheck"):
                star = starcheck(f, active.mask)
                charge_starcheck("starcheck", iteration)
                # convergence detection (strengthened Lemma 1): min and max
                # neighbouring parent come from one fused pass over the
                # star rows, so charge one mxv
                if use_sparsity:
                    conv = converged_star_vertices(Ap, f, star, active.mask)
                    dmat.charge_mxv(cost, active_bitmap(), "starcheck")
                    active.retire(conv)
            it_stats.converged_vertices = active.converged_count
            it_stats.star_vertices = int(np.count_nonzero(star))
            add_step_delta(it_stats.step_model_seconds, before)

            before = snapshot()
            with step_span("shortcut"):
                nonstar = ~star
                scope = nonstar & active._active if use_sparsity else nonstar
                scope_idx = np.flatnonzero(scope)
                if scope_idx.size:
                    rep2 = charge_extract(
                        grid, cost, f[scope_idx], scope_idx, "shortcut", **route_kw
                    )
                    record_routed(iteration, "shortcut", rep2)
                    cost.charge_compute(scope_idx.size / max(nprocs, 1), "shortcut")
                shortcut(f, scope)
            add_step_delta(it_stats.step_model_seconds, before)

            if it_span:
                it_span.set("active_vertices", it_stats.active_vertices)
                it_span.set("converged_vertices", it_stats.converged_vertices)
                it_span.set("cond_hooks", it_stats.cond_hooks)
                it_span.set("uncond_hooks", it_stats.uncond_hooks)

        # per-iteration communication attribution (Figure 8's comm columns)
        _, words1, msgs1 = cost.totals()
        it_stats.words_communicated = int(round(words1 - words0))
        it_stats.messages_sent = int(round(msgs1 - msgs0))
        stats.iterations.append(it_stats)
        if fr:
            fr.record(
                "iteration",
                iteration=iteration,
                active_vertices=it_stats.active_vertices,
                cond_hooks=it_stats.cond_hooks,
                uncond_hooks=it_stats.uncond_hooks,
                converged_vertices=it_stats.converged_vertices,
                words=it_stats.words_communicated,
                messages=it_stats.messages_sent,
            )
        reg = _mreg()
        if reg:
            reg.counter("lacc_iterations_total",
                        "LACC iterations executed", driver="dist").inc()
            reg.counter("lacc_hooks_total", "trees hooked",
                        driver="dist", kind="cond").inc(it_stats.cond_hooks)
            reg.counter("lacc_hooks_total", "trees hooked",
                        driver="dist", kind="uncond").inc(it_stats.uncond_hooks)
            reg.gauge("lacc_active_vertices",
                      "active vertices entering the latest iteration",
                      driver="dist").set(it_stats.active_vertices)

        hooked = it_stats.cond_hooks + it_stats.uncond_hooks
        all_stars = not nonstar.any()
        if active.all_converged() or (hooked == 0 and all_stars):
            break
        star = starcheck(f, active.mask)

        if on_iteration is not None:
            # snapshot in ORIGINAL vertex space — interchangeable with the
            # serial driver's, which the degraded replay path relies on
            plan = getattr(cost, "faults", None)
            on_iteration(
                IterationSnapshot(
                    iteration=iteration,
                    parents=dmat.to_original_labels(f),
                    star=star[dmat.perm],
                    active=(
                        active._active[dmat.perm] if use_sparsity else None
                    ),
                    simulated_seconds=cost.total_seconds,
                    plan_cursor=0 if plan is None else plan.cursor,
                )
            )

    labels = dmat.to_original_labels(f)
    n_components = count_distinct(labels)
    if fr:
        fr.record(
            "run_end",
            n_iterations=iteration,
            n_components=n_components,
            simulated_seconds=cost.total_seconds,
        )
    return DistLACCResult(
        labels,
        n_components,
        iteration,
        stats,
        cost,
        machine,
        nodes,
        nprocs,
        routing,
    )
