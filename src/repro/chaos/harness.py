"""End-to-end chaos runs: run a driver under faults, verify the answer.

:func:`chaos_run` is the programmatic core of ``python -m repro chaos``,
the one way to run a LACC driver under a fault plan.  It runs any
:data:`~repro.core.drivers.DRIVERS` entry under the recovery supervisor
with any preset of :data:`repro.faults.PRESETS` (or ``none``) as the
driver's ``faults=`` plan, whose communicator delivers the scheduled
faults (signals on the proc backend, typed errors on the simulator),
records the run's flight record, then verifies the **full** acceptance
contract — the run completed without a fresh start, the final parent
vector is byte-identical to a fault-free reference, and the labels match
the union-find oracle.  With a recovery budget of 0 the supervisor
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
from contextlib import ExitStack
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

from repro.faults import PRESETS
from repro.faults import preset as make_preset

__all__ = ["ChaosReport", "chaos_run", "preset_flags"]


@dataclass
class ChaosReport:
    """Everything one chaos run proved (or failed to prove)."""

    graph: str
    driver: str
    backend: str
    preset: str
    seed: int
    ranks: int
    wall_seconds: float
    #: fault injection log (byte-reproducible given the seed, and the
    #: same on both backends)
    chaos_log: str
    injected: Dict[str, int] = field(default_factory=dict)
    rank_lost_events: int = 0
    anomaly_classes: List[str] = field(default_factory=list)
    #: why the run ended without an answer (only with a recovery budget
    #: of 0: the fault needed a recovery the budget did not allow); the
    #: fields below then keep their defaults
    error: Optional[str] = None
    components: Optional[int] = None
    iterations: Optional[int] = None
    attempts: int = 0
    recoveries: int = 0
    degraded: bool = False
    shrunk_to: Optional[int] = None
    #: run completed via resume, never via a from-scratch restart
    resumed: bool = False
    #: final parents byte-identical to the fault-free reference
    byte_identical: bool = False
    #: labels match the union-find oracle
    oracle_ok: bool = False
    recovery_events: List[dict] = field(default_factory=list)
    #: α–β model seconds of the run and of the fault-free reference
    #: (``None`` for a driver that charged no cost model)
    simulated_seconds: Optional[float] = None
    reference_seconds: Optional[float] = None

    @property
    def ok(self) -> bool:
        """The acceptance verdict: failed loudly, or correct, byte-exact
        and elastic."""
        if self.error is not None:
            return True
        return self.byte_identical and self.oracle_ok and self.resumed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "graph": self.graph,
            "driver": self.driver,
            "backend": self.backend,
            "preset": self.preset,
            "seed": self.seed,
            "ranks": self.ranks,
            "components": self.components,
            "iterations": self.iterations,
            "attempts": self.attempts,
            "recoveries": self.recoveries,
            "degraded": self.degraded,
            "shrunk_to": self.shrunk_to,
            "resumed": self.resumed,
            "byte_identical": self.byte_identical,
            "oracle_ok": self.oracle_ok,
            "ok": self.ok,
            "error": self.error,
            "wall_seconds": round(self.wall_seconds, 4),
            "simulated_seconds": self.simulated_seconds,
            "reference_seconds": self.reference_seconds,
            "injected": self.injected,
            "rank_lost_events": self.rank_lost_events,
            "anomaly_classes": self.anomaly_classes,
            "recovery_events": self.recovery_events,
        }


def _merge_surviving_rank_obs(fr) -> None:
    """Collect every still-live obs pool and fold each surviving rank's
    deterministic flight record into *fr* as ``rank_event`` rows.

    Dead ranks are already in the record: :class:`~repro.parallel.ProcComm`
    replays their salvaged obs frames (``salvaged=True``) at failure time.
    This pass adds the *survivors* — the other side of the same collective
    — so the merged postmortem shows both halves.
    """
    from repro.parallel.obsband import drain_active_obs_pools, record_rank_events

    try:
        per_pool = drain_active_obs_pools()
    except Exception:  # a half-dead pool must not sink the verdict
        return
    for _size, obs in sorted(per_pool.items()):
        record_rank_events(fr, obs.flight_events)


def preset_flags(preset: str, **flags: Any) -> Dict[str, Any]:
    """The fault flags in *flags* that are set (not ``None``) and that
    *preset*'s factory in :data:`~repro.faults.PRESETS` takes (none for
    ``none``)."""
    takes = inspect.signature(PRESETS[preset]).parameters if preset in PRESETS else {}
    return {k: v for k, v in flags.items() if v is not None and k in takes}


def chaos_run(
    g,
    driver: str = "spmd",
    ranks: int = 4,
    preset: str = "kill",
    seed: int = 0,
    after: Optional[int] = None,
    phase: Optional[str] = None,
    rank: Optional[int] = None,
    stall_seconds: Optional[float] = None,
    backend: Optional[str] = None,
    machine: str = "edison",
    nodes: int = 4,
    checkpoint_interval: int = 1,
    checkpoint_dir: Optional[str] = None,
    max_recoveries: int = 5,
    min_ranks: int = 1,
    record_path: Optional[str] = None,
    trace_path: Optional[str] = None,
) -> ChaosReport:
    """Run *driver* on *g* under *preset* and verify the recovery contract.

    Parameters mirror the ``repro chaos`` CLI: *preset*/*seed* and the
    fault flags *after*/*phase*/*rank*/*stall_seconds* (each passed to
    the preset only when set and only if the preset takes it — see
    :func:`preset_flags` and :func:`repro.faults.preset`) seed the fault
    schedule, *rank* picks the victim (below *ranks*; default:
    seeded), *backend* picks ``sim``/``proc`` (default: whatever is
    active), *machine*/*nodes* place a ``dist`` run, *checkpoint_dir*
    makes checkpoints durable (default: in memory), *record_path* streams
    the flight record to a JSONL file for ``repro explain``, and
    *trace_path* writes a Chrome trace of the supervised run.

    ``max_recoveries=0`` fails loudly: the supervisor neither recovers
    nor degrades, and the report's ``error`` says why the run ended.
    The report's ``resumed`` and ``shrunk_to`` are the
    :class:`~repro.recovery.SupervisedResult` fields of the same names.
    """
    from repro.baselines.union_find import connected_components as uf_labels
    from repro.core.drivers import DRIVERS
    from repro.graphs.validate import same_partition
    from repro.mpisim import backend as backend_mod
    from repro.obs import Tracer
    from repro.obs.analytics import analyze
    from repro.obs.anomaly import default_detectors
    from repro.obs.flight import FlightRecorder
    from repro.obs.tracer import activate
    from repro.recovery import (
        DiskCheckpointStore,
        MemoryCheckpointStore,
        RecoveryExhausted,
        Supervisor,
        SupervisorConfig,
    )

    backend_name = backend if backend is not None else backend_mod.active()
    entry = DRIVERS[driver]
    if rank is not None and rank >= ranks:
        raise ValueError(f"victim rank {rank} is not one of the {ranks} ranks")
    flags = preset_flags(preset, after=after, phase=phase, rank=rank,
                         stall_seconds=stall_seconds)
    plan = None if preset == "none" else make_preset(preset, seed=seed, **flags)
    drv, where = entry.fn, dict(ranks=ranks, machine=machine, nodes=nodes)

    # fault-free reference (simulator: byte-identical to proc by the
    # differential suite, and orders of magnitude cheaper)
    dargs, dkw = entry.call(g, **where)
    with backend_mod.use("sim"):
        ref = drv(*dargs, **dkw)
    dargs, dkw = entry.call(g, faults=plan, **where)

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
    fr = FlightRecorder(detectors=default_detectors(), path=record_path)
    tracer = Tracer() if trace_path else None

    # proc runs under the flight recorder also trace inside every worker:
    # a SIGKILLed rank's eagerly-shipped flight events get salvaged into
    # this record by ProcComm (kind ``rank_event``, ``salvaged=True``),
    # which is what makes a chaos postmortem show the dead rank's last
    # moments and not just the conductor's view of the loss
    rank_obs = backend_name == "proc" and entry.runs_at is not None
    res = error = None
    t0 = perf_counter()
    try:
        with ExitStack() as stack:
            if rank_obs:
                from repro.parallel.obsband import enable_rank_obs

                stack.enter_context(enable_rank_obs())
            stack.enter_context(activate(tracer, flight=fr))
            stack.enter_context(backend_mod.use(backend_name))
            try:
                res = sup.run(drv, *dargs, **dkw)
            except RecoveryExhausted as exc:
                error = str(exc)
                fr.record("run_end", error=error)
        wall = perf_counter() - t0
        if rank_obs:
            _merge_surviving_rank_obs(fr)
        if res is not None and res.result.cost is not None:
            # the per-step λ / delay attribution, for explain's correlation
            fr.record("analytics", report=analyze(res.result).to_dict())
    finally:
        fr.close()
    if tracer is not None:
        from repro.obs.export import chrome_trace, write_chrome_trace

        write_chrome_trace(
            chrome_trace(tracer, process_name=f"chaos {g.name} [{driver}]"),
            trace_path,
        )

    outcome: Dict[str, Any] = {}
    if res is not None:
        outcome = dict(
            components=res.n_components,
            iterations=res.n_iterations,
            attempts=res.attempts,
            recoveries=res.n_recoveries,
            degraded=res.degraded,
            shrunk_to=res.shrunk_to,
            resumed=res.resumed,
            byte_identical=bool(np.array_equal(res.parents, ref.parents)),
            oracle_ok=bool(same_partition(res.labels, uf_labels(g.n, g.u, g.v))),
            recovery_events=[e.to_dict() for e in res.events],
            simulated_seconds=None if res.cost is None else res.cost.total_seconds,
        )
    return ChaosReport(
        graph=g.name,
        driver=driver,
        backend=backend_name,
        preset=preset,
        seed=seed,
        ranks=ranks,
        wall_seconds=wall,
        chaos_log="[]" if plan is None else plan.to_json(),
        injected={} if plan is None else plan.summary(),
        rank_lost_events=len(fr.find("rank_lost")),
        anomaly_classes=sorted(
            {ev.data.get("detector", "?") for ev in fr.anomalies()}
        ),
        error=error,
        reference_seconds=None if ref.cost is None else ref.cost.total_seconds,
        **outcome,
    )
