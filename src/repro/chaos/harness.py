"""End-to-end chaos runs: inject real process faults, verify recovery.

:func:`chaos_run` is the programmatic core of ``python -m repro chaos``
and of the CI chaos matrix: it runs one distributed driver under the
recovery supervisor while a :class:`~repro.chaos.ChaosInjector` delivers
scheduled process faults, then verifies the **full** acceptance
contract — the run completed without a fresh start, the final parent
vector is byte-identical to a fault-free reference, and the labels match
the union-find oracle.

The fault-free reference runs on the simulator: the differential suite
(``tests/differential/test_proc_backend.py``) pins sim and proc results
byte-identical, and LACC's final parents are canonical (min-label roots)
regardless of rank count — which is exactly why a shrink-to-survivors
resume can still be checked byte-for-byte.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

import numpy as np

from .injector import ChaosInjector, activate_chaos
from .plan import chaos_preset

__all__ = ["ChaosReport", "chaos_run"]


@dataclass
class ChaosReport:
    """Everything one chaos run proved (or failed to prove)."""

    graph: str
    driver: str
    backend: str
    preset: str
    seed: int
    ranks: int
    components: int
    iterations: int
    attempts: int
    recoveries: int
    degraded: bool
    shrunk_to: Optional[int]
    #: run completed via resume, never via a from-scratch restart
    resumed: bool
    #: final parents byte-identical to the fault-free reference
    byte_identical: bool
    #: labels match the union-find oracle
    oracle_ok: bool
    wall_seconds: float
    #: chaos injection log (byte-reproducible given the seed)
    chaos_log: str
    injected: Dict[str, int] = field(default_factory=dict)
    rank_lost_events: int = 0
    anomaly_classes: List[str] = field(default_factory=list)
    recovery_events: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """The acceptance verdict: correct, byte-exact, and elastic."""
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
            "wall_seconds": round(self.wall_seconds, 4),
            "injected": self.injected,
            "rank_lost_events": self.rank_lost_events,
            "anomaly_classes": self.anomaly_classes,
            "recovery_events": self.recovery_events,
        }


def _merge_surviving_rank_obs(fr) -> None:
    """Collect every still-live obs pool and fold each surviving rank's
    deterministic flight record into *fr* as ``rank_event`` rows.

    Dead ranks are already in the record: :class:`~repro.parallel.ProcComm`
    replays their sideband salvage (``salvaged=True``) at failure time.
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


def chaos_run(
    g,
    driver: str = "spmd",
    ranks: int = 4,
    preset: str = "kill",
    seed: int = 0,
    # default lands mid-iteration-2 for both drivers on the bench-corpus
    # graphs — past the first checkpoint, so recovery resumes rather
    # than restarts
    after: int = 30,
    backend: Optional[str] = None,
    stall_seconds: float = 1.0,
    rank: Optional[int] = None,
    checkpoint_interval: int = 1,
    max_recoveries: int = 5,
    min_ranks: int = 1,
    record_path: Optional[str] = None,
    flight: bool = True,
) -> ChaosReport:
    """Run *driver* on *g* under chaos and verify the recovery contract.

    Parameters mirror the ``repro chaos`` CLI: *preset*/*seed*/*after*
    seed the chaos schedule (see :func:`~repro.chaos.plan.chaos_preset`),
    *backend* picks ``sim``/``proc`` (default: whatever is active), and
    *record_path* streams the flight record to a JSONL file for
    ``repro explain``.
    """
    from repro.baselines.union_find import connected_components as uf_labels
    from repro.core.drivers import DRIVERS
    from repro.graphs.validate import same_partition
    from repro.mpisim import backend as backend_mod
    from repro.obs.anomaly import default_detectors
    from repro.obs.flight import FlightRecorder
    from repro.obs.tracer import activate
    from repro.recovery import Supervisor, SupervisorConfig

    backend_name = backend if backend is not None else backend_mod.active()
    entry = DRIVERS.get(driver)
    if entry is None or entry.runs_at is None:
        raise ValueError(f"chaos drives a driver with ranks, not {driver!r}")
    drv, (dargs, dkw) = entry.fn, entry.call(g, ranks=ranks)

    # fault-free reference (simulator: byte-identical to proc by the
    # differential suite, and orders of magnitude cheaper)
    with backend_mod.use("sim"):
        ref = drv(*dargs, **dkw)

    pkw: Dict[str, Any] = {"after": after}
    if preset == "stall":
        pkw["stall_seconds"] = stall_seconds
    if rank is not None and preset != "shrink":
        pkw["rank"] = rank
    plan = chaos_preset(preset, seed=seed, **pkw)
    injector = ChaosInjector(plan)

    sup = Supervisor(
        config=SupervisorConfig(
            checkpoint_interval=checkpoint_interval,
            max_recoveries=max_recoveries,
            allow_shrink=True,
            min_ranks=min_ranks,
        )
    )
    fr = (
        FlightRecorder(detectors=default_detectors(), path=record_path)
        if flight
        else None
    )

    # proc runs under the flight recorder also trace inside every worker:
    # a SIGKILLed rank's eagerly-shipped flight events get salvaged into
    # this record by ProcComm (kind ``rank_event``, ``salvaged=True``),
    # which is what makes a chaos postmortem show the dead rank's last
    # moments and not just the conductor's view of the loss
    rank_obs = backend_name == "proc" and fr is not None
    t0 = perf_counter()
    try:
        with ExitStack() as stack:
            if rank_obs:
                from repro.parallel.obsband import enable_rank_obs

                stack.enter_context(enable_rank_obs())
            stack.enter_context(activate(flight=fr))
            stack.enter_context(activate_chaos(injector))
            stack.enter_context(backend_mod.use(backend_name))
            res = sup.run(drv, *dargs, **dkw)
        wall = perf_counter() - t0
        if rank_obs:
            _merge_surviving_rank_obs(fr)
    finally:
        if fr is not None:
            fr.close()

    # every path back to iteration 0 spells it out in the event detail
    # ("fresh start" / "restart" / "from scratch") — their absence is the
    # proof the run resumed instead of starting over
    resumed = not any(
        ("fresh start" in e.detail)
        or ("restart" in e.detail)
        or ("scratch" in e.detail)
        for e in res.events
    )
    anomaly_classes = sorted(
        {ev.data.get("detector", "?") for ev in fr.anomalies()}
    ) if fr is not None else []
    rank_lost_events = len(fr.find("rank_lost")) if fr is not None else 0

    return ChaosReport(
        graph=getattr(g, "name", "?"),
        driver=driver,
        backend=backend_name,
        preset=preset,
        seed=seed,
        ranks=ranks,
        components=res.n_components,
        iterations=res.n_iterations,
        attempts=res.attempts,
        recoveries=res.n_recoveries,
        degraded=res.degraded,
        shrunk_to=res.shrunk_to,
        resumed=resumed,
        byte_identical=bool(np.array_equal(res.parents, ref.parents)),
        oracle_ok=bool(same_partition(res.labels, uf_labels(g.n, g.u, g.v))),
        wall_seconds=wall,
        chaos_log=plan.to_json(),
        injected=plan.summary(),
        rank_lost_events=rank_lost_events,
        anomaly_classes=anomaly_classes,
        recovery_events=[e.to_dict() for e in res.events],
    )
