"""Run one driver on one graph under the observers, with or without faults.

:func:`run_driver` is the programmatic core of ``python -m repro run``,
the one way to run a LACC driver (any :data:`~repro.core.drivers.DRIVERS`
entry) or a baseline method of :func:`repro.connected_components`.

Without a fault preset the driver is called directly under the observers
the caller asks for: a tracer, a flight record, and on the proc backend
the per-rank observability of :mod:`repro.parallel.obsband`, whose rank
tracers merge with the conductor's into one Chrome trace.

With a preset of :data:`repro.faults.PRESETS` the driver runs under the
recovery supervisor with the preset as its ``faults=`` plan, whose
communicator delivers the scheduled faults (signals on the proc backend,
typed errors on the simulator).  The report then carries the **full**
acceptance verdict — the run completed without a fresh start, the final
parent vector is byte-identical to a fault-free reference, and the labels
match the union-find oracle.  With a recovery budget of 0 the supervisor
neither recovers nor degrades: a fault that needs recovery ends the run
and the report carries the error — the run failed loudly instead of
answering wrong.

The fault-free reference runs on the simulator: the differential suite
(``tests/differential/test_proc_backend.py``) pins sim and proc results
byte-identical, and LACC's final parents are canonical (min-label roots)
regardless of rank count — which is exactly why a shrink-to-survivors
resume can still be checked byte-for-byte.
"""

from __future__ import annotations

import inspect
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.faults import PRESETS
from repro.faults import preset as make_preset

__all__ = ["RunReport", "run_driver", "preset_flags"]


def _iteration_records(stats, model: bool) -> List[dict]:
    """Per-iteration stats as plain dicts (model seconds and traffic for
    a run that charged a cost model)."""
    out = []
    for it in stats.iterations:
        rec = {
            "iteration": it.iteration,
            "active_vertices": it.active_vertices,
            "cond_hooks": it.cond_hooks,
            "uncond_hooks": it.uncond_hooks,
            "converged_vertices": it.converged_vertices,
            "step_seconds": dict(
                it.step_model_seconds if model else it.step_seconds
            ),
        }
        if model:
            rec["words_communicated"] = it.words_communicated
            rec["messages_sent"] = it.messages_sent
        out.append(rec)
    return out


@dataclass
class RunReport:
    """One run: its answer, its observers' output and, under a fault
    preset, everything the run proved (or failed to prove)."""

    graph: str
    driver: str
    backend: str
    #: node count of a ``dist`` run (``None`` for the other drivers)
    nodes: Optional[int]
    wall_seconds: float
    #: the final labels (``None`` when the run failed loudly)
    labels: Optional[np.ndarray] = None
    #: the driver's result (its last attempt under faults; ``None`` for a
    #: baseline method or a run that failed loudly)
    result: Any = None
    tracer: Any = None
    #: the workers' tracers and flight records of a proc run
    rank_obs: Any = None
    analytics: Any = None
    #: the fault preset (``None``: a clean run, which nothing verifies)
    preset: Optional[str] = None
    seed: Optional[int] = None
    #: fault injection log (byte-reproducible given the seed, and the
    #: same on both backends)
    chaos_log: str = "[]"
    injected: Dict[str, int] = field(default_factory=dict)
    rank_lost_events: int = 0
    anomaly_classes: List[str] = field(default_factory=list)
    #: why the run ended without an answer (only with a recovery budget
    #: of 0: the fault needed a recovery the budget did not allow)
    error: Optional[str] = None
    attempts: int = 1
    recoveries: int = 0
    degraded: bool = False
    shrunk_to: Optional[int] = None
    #: run completed via resume, never via a from-scratch restart
    resumed: Optional[bool] = None
    #: final parents byte-identical to the fault-free reference
    byte_identical: Optional[bool] = None
    #: labels match the union-find oracle
    oracle_ok: Optional[bool] = None
    recovery_events: List[dict] = field(default_factory=list)
    #: α–β model seconds of the run and of the fault-free reference
    #: (``None`` for a run that charged no cost model)
    simulated_seconds: Optional[float] = None
    reference_seconds: Optional[float] = None

    @property
    def ok(self) -> bool:
        """The acceptance verdict: a clean run, failed loudly, or correct,
        byte-exact and elastic."""
        if self.preset is None or self.error is not None:
            return True
        return bool(self.byte_identical and self.oracle_ok and self.resumed)

    @property
    def components(self) -> Optional[int]:
        return None if self.labels is None else int(np.unique(self.labels).size)

    @property
    def iterations(self) -> Optional[int]:
        return None if self.result is None else self.result.n_iterations

    @property
    def ranks(self) -> Optional[int]:
        return None if self.result is None else self.result.ranks

    @property
    def machine(self) -> Optional[str]:
        cost = getattr(self.result, "cost", None)
        return None if cost is None else cost.machine.name

    def chrome_trace(self) -> dict:
        """The run's Chrome trace: on proc one pid lane per rank plus the
        conductor, else the conductor's lane (pid = the node count)."""
        from repro.obs.export import chrome_trace

        if self.rank_obs is not None:
            return self.rank_obs.merged_trace(conductor=self.tracer)
        where = f" nodes={self.nodes}" if self.nodes is not None else ""
        return chrome_trace(self.tracer, pid=self.nodes or 0,
                            process_name=f"{self.graph} [{self.driver}{where}]")

    def to_dict(self) -> Dict[str, Any]:
        res = self.result
        model = self.machine is not None
        sizes = (np.unique(self.labels, return_counts=True)[1]
                 if self.labels is not None else np.zeros(0, dtype=np.int64))
        return {
            "nodes": self.nodes,
            "ranks": self.ranks,
            "machine": self.machine,
            "components": self.components,
            "iterations": self.iterations,
            "largest_component": int(sizes.max()) if sizes.size else None,
            "singleton_components": int(np.count_nonzero(sizes == 1)),
            "wall_seconds": round(self.wall_seconds, 4),
            "simulated_seconds": self.simulated_seconds,
            "words": res.cost.total_words if model else None,
            "messages": res.cost.total_messages if model else None,
            "step_seconds": None if res is None
            else res.stats.step_totals(model=model),
            "iteration_stats": None if res is None
            else _iteration_records(res.stats, model),
            "analytics": None if self.analytics is None
            else self.analytics.to_dict(),
            "preset": self.preset,
            "seed": self.seed,
            "ok": self.ok,
            "error": self.error,
            "attempts": self.attempts,
            "recoveries": self.recoveries,
            "degraded": self.degraded,
            "shrunk_to": self.shrunk_to,
            "resumed": self.resumed,
            "byte_identical": self.byte_identical,
            "oracle_ok": self.oracle_ok,
            "reference_seconds": self.reference_seconds,
            "injected": self.injected,
            "rank_lost_events": self.rank_lost_events,
            "anomaly_classes": self.anomaly_classes,
            "recovery_events": self.recovery_events,
        }


def preset_flags(preset: Optional[str], **flags: Any) -> Dict[str, Any]:
    """The fault flags in *flags* that are set (not ``None``) and that
    *preset*'s factory in :data:`~repro.faults.PRESETS` takes (none
    without a preset)."""
    takes = inspect.signature(PRESETS[preset]).parameters if preset in PRESETS else {}
    return {k: v for k, v in flags.items() if v is not None and k in takes}


def run_driver(
    g,
    driver: str = "serial",
    ranks: int = 4,
    backend: Optional[str] = None,
    machine: str = "edison",
    nodes: int = 4,
    preset: Optional[str] = None,
    seed: int = 0,
    after: Optional[int] = None,
    phase: Optional[str] = None,
    rank: Optional[int] = None,
    stall_seconds: Optional[float] = None,
    checkpoint_interval: int = 1,
    checkpoint_dir: Optional[str] = None,
    max_recoveries: int = 5,
    min_ranks: int = 1,
    record_path: Optional[str] = None,
    trace: bool = False,
    analyze: bool = False,
) -> RunReport:
    """Run *driver* (a :data:`~repro.core.drivers.DRIVERS` key or a
    :data:`repro.BASELINES` method) on *g* and report the run.

    Parameters mirror the ``repro run`` CLI.  *backend* picks
    ``sim``/``proc`` (default: whatever is active), *ranks* sizes an
    ``spmd``/``2d`` run and *machine*/*nodes* place a ``dist`` run.
    *trace* keeps the run's tracer on the report, *record_path* streams
    the flight record to a JSONL file for ``repro explain``, and
    *analyze* attaches the per-rank analytics (measured from the workers'
    timelines on proc, else the α–β model's; ``ValueError`` when the run
    has neither).

    *preset* supervises the run under that fault plan and verifies it.
    *seed* and the fault flags *after*/*phase*/*rank*/*stall_seconds*
    (each passed to the preset only when set and only if the preset
    takes it — see :func:`preset_flags`) seed the schedule, *rank* picks
    the victim (below *ranks*; default: seeded), *checkpoint_dir* makes
    checkpoints durable (default: in memory).  ``max_recoveries=0``
    fails loudly: the supervisor neither recovers nor degrades, and the
    report's ``error`` says why the run ended.  The report's ``resumed``
    and ``shrunk_to`` are the :class:`~repro.recovery.SupervisedResult`
    fields of the same names.
    """
    from repro import connected_components
    from repro.core.drivers import DRIVERS
    from repro.mpisim import backend as backend_mod
    from repro.obs import FlightRecorder, Tracer, activate, current
    from repro.obs.analytics import analyze as analyze_result
    from repro.obs.analytics import analyze_proc

    backend_name = backend if backend is not None else backend_mod.active()
    entry = DRIVERS.get(driver)
    if rank is not None and rank >= ranks:
        raise ValueError(f"victim rank {rank} is not one of the {ranks} ranks")
    plan = None if preset is None else make_preset(
        preset, seed=seed, **preset_flags(preset, after=after, phase=phase,
                                          rank=rank, stall_seconds=stall_seconds))
    where = dict(ranks=ranks, machine=machine, nodes=nodes)

    fr = FlightRecorder(path=record_path) if record_path or plan else None
    # proc runs observed from the conductor also trace inside every
    # worker: one clock (time.monotonic) for the merged trace, and under
    # faults a SIGKILLed rank's eagerly-shipped flight events get salvaged
    # into this record by ProcComm (kind ``rank_event``, ``salvaged=True``)
    rank_obs = (backend_name == "proc" and entry is not None
                and entry.runs_at is not None
                and (trace or analyze or fr is not None))
    tracer = None
    if trace:
        tracer = Tracer(clock=time.monotonic) if rank_obs else Tracer()
    report = RunReport(graph=g.name, driver=driver, backend=backend_name,
                       nodes=nodes if driver == "dist" else None,
                       wall_seconds=0.0, tracer=tracer, preset=preset,
                       seed=None if plan is None else seed)

    sup = ref = res = None
    if plan is not None:
        from repro.recovery import (
            DiskCheckpointStore,
            MemoryCheckpointStore,
            Supervisor,
            SupervisorConfig,
        )

        # fault-free reference (simulator: byte-identical to proc by the
        # differential suite, and orders of magnitude cheaper)
        dargs, dkw = entry.call(g, **where)
        with backend_mod.use("sim"):
            ref = entry.fn(*dargs, **dkw)
        sup = Supervisor(
            store=DiskCheckpointStore(checkpoint_dir) if checkpoint_dir
            else MemoryCheckpointStore(),
            config=SupervisorConfig(
                checkpoint_interval=checkpoint_interval,
                max_recoveries=max_recoveries,
                allow_degraded=max_recoveries > 0,
                min_ranks=min_ranks,
            ),
        )

    t0 = time.perf_counter()
    try:
        with ExitStack() as stack:
            if rank_obs:
                from repro.parallel.obsband import enable_rank_obs

                stack.enter_context(enable_rank_obs())
            stack.enter_context(activate(tracer, flight=fr))
            stack.enter_context(backend_mod.use(backend_name))
            if entry is None:
                with current().span(driver, "baseline"):
                    report.labels = connected_components(g.u, g.v, g.n,
                                                         method=driver)
            elif sup is None:
                dargs, dkw = entry.call(g, **where)
                report.result = entry.fn(*dargs, **dkw)
            else:
                from repro.recovery import RecoveryExhausted

                dargs, dkw = entry.call(g, faults=plan, **where)
                try:
                    res = sup.run(entry.fn, *dargs, **dkw)
                    report.result = res.result
                except RecoveryExhausted as exc:
                    report.error = str(exc)
                    fr.record("run_end", error=report.error)
        report.wall_seconds = time.perf_counter() - t0
        result = report.result
        if rank_obs:
            from repro.parallel.obsband import (
                drain_active_obs_pools,
                record_rank_events,
            )

            # every live instrumented pool: a shrunk run ends on a pool
            # of another size, and a dead rank's events are already in
            # the record (ProcComm salvages them at failure time)
            per_pool = drain_active_obs_pools()
            if fr is not None:
                for _size, obs in sorted(per_pool.items()):
                    record_rank_events(fr, obs.flight_events)
            if result is not None:
                report.rank_obs = per_pool.get(result.ranks)
        priced = result is not None and result.cost is not None
        if result is not None and (analyze or (fr is not None and priced)):
            try:
                an = (analyze_proc(report.rank_obs, n_iterations=result.n_iterations)
                      if report.rank_obs is not None else analyze_result(result))
            except ValueError as exc:
                raise ValueError(f"cannot analyze: {exc}") from None
            if fr is not None and priced:
                # the per-step λ / delay attribution, for explain's correlation
                fr.record("analytics", report=an.to_dict())
            report.analytics = an if analyze else None
    finally:
        if fr is not None:
            fr.close()

    if result is not None:
        report.labels = result.labels
    # a supervised run's model also holds the checkpoint charges
    cost = getattr(res if res is not None else result, "cost", None)
    report.simulated_seconds = None if cost is None else cost.total_seconds
    if plan is None:
        return report

    from repro.baselines.union_find import connected_components as uf_labels
    from repro.graphs.validate import same_partition
    from repro.obs.anomaly import detect

    report.chaos_log = plan.to_json()
    report.injected = plan.summary()
    report.rank_lost_events = len(fr.find("rank_lost"))
    report.anomaly_classes = sorted({a.detector for a in detect(fr.events)})
    report.reference_seconds = None if ref.cost is None else ref.cost.total_seconds
    if res is not None:
        report.attempts = res.attempts
        report.recoveries = res.n_recoveries
        report.degraded = res.degraded
        report.shrunk_to = res.shrunk_to
        report.resumed = res.resumed
        report.byte_identical = bool(np.array_equal(res.parents, ref.parents))
        report.oracle_ok = bool(same_partition(res.labels, uf_labels(g.n, g.u, g.v)))
        report.recovery_events = [e.to_dict() for e in res.events]
    return report
