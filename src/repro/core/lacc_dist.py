"""Distributed LACC over the simulated machine (§V of the paper).

The simulator runs the *identical* loop as :func:`repro.core.lacc` — the
serial step functions compute every value on the (permuted) parent array,
so results are exact — with a pricer that charges an α–β
:class:`~repro.mpisim.costmodel.CostModel` for each primitive as it would
run on a ``√p × √p`` CombBLAS process grid:

* ``GrB_mxv`` → two-stage SpMV/SpMSpV (column-group allgather + row-group
  reduce-scatter / sparse all-to-all), work ∝ edges incident to active
  columns (:meth:`repro.combblas.distmatrix.DistMatrix.charge_mxv`);
* ``GrB_extract`` / ``GrB_assign`` → request routing with skew detection,
  broadcast offload and sparse hypercube all-to-all
  (:mod:`repro.combblas.indexing`) — the per-rank request histograms are
  recorded per iteration, which is exactly Figure 3;
* per-iteration step times land in ``IterationStats.step_model_seconds``,
  the series behind Figures 4, 5, 6 and 8.

The result is the serial driver's :class:`~repro.core.lacc.LACCResult`
with ``ranks``, ``cost`` and ``routing`` filled in.

Configuration follows §VI-A: ``t`` threads per MPI process (6 on Edison,
16 on Cori → 4 processes/node on both), and the largest square process
grid that fits ``cores/t`` ranks.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.combblas.distmatrix import DistMatrix
from repro.combblas.indexing import RoutingReport, charge_assign, charge_extract
from repro.graphblas import Matrix
from repro.mpisim.costmodel import CostModel
from repro.mpisim.grid import ProcessGrid
from repro.mpisim.machine import MachineModel
from repro.obs.tracer import NULL_TRACER, current
from repro.obs.tracer import flight_recorder as _freg

# The loop runs the steps bound in repro.core.lacc; these bindings stay so
# outside-in timers that patch the step names of both driver modules
# find them here too (see the repro.core.lacc docstring).
from .hooking import cond_hook, uncond_hook  # noqa: F401
from .lacc import LACCResult, _Pricer, _run, _start
from .shortcut import shortcut  # noqa: F401
from .snapshot import IterationHook, IterationSnapshot
from .starcheck import starcheck  # noqa: F401

__all__ = ["lacc_dist", "grid_for", "default_cost"]


class _CostPricer(_Pricer):
    """Charges each step of the LACC loop to the α–β model of a CombBLAS
    run on *grid*, and maps the permuted working vertex space of *dmat*
    back to the input's.  ``charge_assign``/``charge_extract`` are looked
    up as this module's globals at call time."""

    def __init__(self, dmat: DistMatrix, grid: ProcessGrid, cost: CostModel, **route_kw):
        self.dmat, self.grid, self.cost = dmat, grid, cost
        self.route_kw = route_kw
        self.routing: List[Tuple[int, str, RoutingReport]] = []
        self.fr = _freg()

    def _phases(self) -> dict:
        return {k: v.seconds for k, v in self.cost.phases.items()}

    def begin_iteration(self) -> None:
        _, self._words0, self._msgs0 = self.cost.totals()
        self._before = self._phases()

    def end_step(self, step_model_seconds: dict) -> None:
        # nothing is charged between two steps, so each step's charges
        # are what the phases gained since the last step (or iteration)
        for k, v in self.cost.phases.items():
            d = v.seconds - self._before.get(k, 0.0)
            if d > 0:
                step_model_seconds[k] = step_model_seconds.get(k, 0.0) + d
        self._before = self._phases()

    def end_iteration(self, it_stats) -> dict:
        # per-iteration communication attribution (Figure 8's comm columns)
        _, words, msgs = self.cost.totals()
        it_stats.words_communicated = int(round(words - self._words0))
        it_stats.messages_sent = int(round(msgs - self._msgs0))
        return {"words": it_stats.words_communicated,
                "messages": it_stats.messages_sent}

    def _routed(self, it: int, phase: str, rep: RoutingReport) -> None:
        """Keep the routing report and, when a flight recorder is on,
        stamp its λ = max/mean skew as a ``step`` event (live Figure 3)."""
        self.routing.append((it, phase, rep))
        if self.fr:
            recv = np.asarray(rep.received_per_rank, dtype=float)
            mean = recv.mean() if recv.size else 0.0
            self.fr.record(
                "step",
                iteration=it,
                step=phase,
                lam=float(recv.max() / mean) if mean > 0 else 1.0,
                worst_rank=int(np.argmax(recv)) if recv.size else 0,
                requests=float(recv.sum()),
            )

    def hook(self, phase: str, it: int, rep, mask, star=None) -> None:
        """Price one hooking phase: mxv + eWise filtering + hook scatter."""
        cols = mask if mask is None or star is None else ~star & mask
        self.dmat.charge_mxv(self.cost, cols, phase)
        scope = int(np.count_nonzero(cols)) if cols is not None else self.dmat.n
        self.cost.charge_compute(scope / self.grid.nprocs, phase)  # eWise/extract
        if rep.roots.size:
            self._routed(it, phase, charge_assign(
                self.grid, self.cost, rep.roots, rep.hook_vertices, phase,
                **self.route_kw,
            ))

    def starcheck(self, f: np.ndarray, mask, it: int) -> None:
        """Price one starcheck: grandparent extract (the Figure 3 hot
        spot), nonstar marking, level-2 fixup."""
        idx = np.arange(f.size) if mask is None else np.flatnonzero(mask)
        if idx.size == 0:
            return
        grid, cost, kw = self.grid, self.cost, self.route_kw
        self._routed(it, "starcheck",
                     charge_extract(grid, cost, f[idx], idx, "starcheck", **kw))
        # marking + fixup are one more assign + extract over the scope
        charge_assign(grid, cost, f[idx], idx, "starcheck", **kw)
        cost.charge_compute(2 * idx.size / grid.nprocs, "starcheck")

    def converged(self, mask) -> None:
        # min and max neighbouring parent come from one fused pass over
        # the star rows, so charge one mxv
        self.dmat.charge_mxv(self.cost, mask, "starcheck")

    def shortcut(self, f: np.ndarray, scope: np.ndarray, it: int) -> None:
        idx = np.flatnonzero(scope)
        if idx.size:
            self._routed(it, "shortcut", charge_extract(
                self.grid, self.cost, f[idx], idx, "shortcut", **self.route_kw
            ))
            self.cost.charge_compute(idx.size / self.grid.nprocs, "shortcut")

    def labels(self, f: np.ndarray) -> np.ndarray:
        return self.dmat.to_original_labels(f)

    def snapshot(self, iteration: int, f, star, active) -> IterationSnapshot:
        # ORIGINAL vertex space — interchangeable with the serial
        # driver's, which the degraded replay path relies on
        perm = self.dmat.perm
        plan = getattr(self.cost, "faults", None)
        return IterationSnapshot(
            iteration=iteration,
            parents=self.labels(f),
            star=star[perm],
            active=None if active is None else active[perm],
            simulated_seconds=self.cost.total_seconds,
            plan_cursor=0 if plan is None else plan.cursor,
        )

    def run_fields(self) -> dict:
        return {"simulated_seconds": self.cost.total_seconds}


def grid_for(machine: MachineModel, nodes: int) -> Tuple[int, int]:
    """(ranks, grid side) for a node count: the largest square grid that
    fits ``nodes · processes_per_node`` ranks (§VI-A)."""
    ranks = machine.ranks(nodes)
    side = max(math.isqrt(ranks), 1)
    return side * side, side


def default_cost(
    machine: MachineModel, nodes: int = 1, trace_comm: bool = False, faults=None
) -> CostModel:
    """The α–β model :func:`lacc_dist` charges into when given none: one
    rank per cell of the :func:`grid_for` grid on *nodes* nodes."""
    nprocs, _ = grid_for(machine, nodes)
    return CostModel(machine, nprocs, nodes, trace=trace_comm, faults=faults)


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
    faults=None,
    cost: Optional[CostModel] = None,
    initial_parents: Optional[np.ndarray] = None,
    initial_active: Optional[np.ndarray] = None,
    start_iteration: int = 0,
    on_iteration: Optional[IterationHook] = None,
    run_name: Optional[str] = None,
) -> LACCResult:
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

    The run's spans are recorded into the active tracer
    (:func:`repro.obs.activate`), with GraphBLAS-primitive and collective
    spans nested under each step.  When that tracer is fresh (nothing
    recorded, no span open), its clock is rebound to the cost model's
    simulated clock so span extents are α–β model seconds (the timeline
    of the machine being simulated); each step span additionally carries
    a ``wall_seconds`` counter — the host time spent computing the step's
    values — so model and actual time sit side by side.

    When a flight recorder is active (``activate(flight=...)``), the
    driver stamps the run record: ``run_start``
    (topology, fault preset, static partition λ), per-iteration
    ``iteration`` events (the serial loop's hooks, stars and Lemma-1
    counts — what the convergence detectors watch — plus the charged
    ``words`` and ``messages``), per-routed-step ``step`` events (λ = max/mean
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
    f, active = _start(A, initial_parents, initial_active, use_sparsity)
    n = A.nrows
    nprocs, side = grid_for(machine, nodes)
    grid = ProcessGrid(nprocs, n, distribution=vector_distribution)
    dmat = DistMatrix(A, grid, permute=permute, seed=seed)
    if cost is None:
        cost = default_cost(machine, nodes, trace_comm, faults)
    _freg().bind_clock(lambda: cost.total_seconds)
    tracer = current()
    if tracer.enabled and not tracer.roots and tracer.current is None:
        # fresh tracer: span extents become simulated seconds
        tracer.clock = lambda: cost.total_seconds

    # into the permuted vertex space the loop works in
    f = dmat.to_permuted_parents(f)
    active._active = dmat.to_permuted_bitmap(active._active)
    pricer = _CostPricer(dmat, grid, cost, use_broadcast_offload=use_broadcast_offload,
                         use_hypercube=use_hypercube)
    return _run(
        dmat.A, f, active, pricer, NULL_TRACER,
        run_span=("lacc_dist", dict(machine=machine.name, nodes=nodes, ranks=nprocs)),
        run_start=dict(
            driver="dist", graph=run_name, machine=machine.name, nodes=nodes,
            ranks=nprocs, preset=faults.name if faults is not None else None,
            seed=faults.seed if faults is not None else None,
            partition_lambda=dmat.load_imbalance(),
            partition_worst_rank=int(np.argmax(dmat.edges_per_rank)),
        ),
        max_iterations=max_iterations,
        start_iteration=start_iteration, on_iteration=on_iteration,
        ranks=nprocs, cost=cost, routing=pricer.routing,
    )
