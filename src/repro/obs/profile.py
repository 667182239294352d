"""One-call profiling entry points used by ``python -m repro profile``.

Each helper runs an algorithm with a freshly activated tracer and returns
``(result, tracer)``; the caller renders/exports the tracer as it likes
(see :mod:`repro.obs.render` and :mod:`repro.obs.export`).

This module imports :mod:`repro.core`, so it is *not* re-exported from
``repro.obs`` — import it explicitly (``from repro.obs import profile``)
to keep the tracer substrate dependency-free for the layers it hooks.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .tracer import Tracer, activate

__all__ = ["trace_lacc", "trace_lacc_dist", "trace_lacc_proc"]


def trace_lacc(A, **kwargs) -> Tuple["object", Tracer]:
    """Run serial :func:`repro.core.lacc` under a fresh wall-clock tracer.

    Returns ``(LACCResult, Tracer)`` with iteration → step → primitive
    span nesting.
    """
    from repro.core.lacc import lacc

    tracer = Tracer()
    with activate(tracer):
        res = lacc(A, **kwargs)
    return res, tracer


def trace_lacc_dist(A, machine, nodes: int = 1, **kwargs) -> Tuple["object", Tracer]:
    """Run simulated-distributed LACC under a *simulated-clock* tracer.

    ``lacc_dist`` rebinds a fresh tracer's clock to its cost model, so
    span extents are α–β model seconds — the exported timeline is the
    machine the paper measured, not this host.  Each charge's ``words``,
    ``messages`` and ``model_seconds`` counters ride on the enclosing
    span.
    """
    from repro.core.lacc_dist import lacc_dist

    tracer = Tracer()
    with activate(tracer):
        res = lacc_dist(A, machine, nodes=nodes, **kwargs)
    return res, tracer


def trace_lacc_proc(
    g, ranks: int = 4, flight_path: Optional[str] = None, **kwargs
) -> Tuple["object", Tracer, "object"]:
    """Run literal-SPMD LACC on the real-process backend with per-rank
    observability, and collect every worker's obs bundle.

    Returns ``(SPMDLACCResult, conductor_tracer, RankObsResult)``.  The
    conductor tracer runs on ``time.monotonic()`` — the same clock domain
    the workers trace in — so
    :meth:`~repro.parallel.obsband.RankObsResult.merged_trace` yields one
    Chrome trace with an aligned pid lane per rank plus the conductor.
    When *flight_path* is given, the conductor's flight record (with each
    rank's record merged in as ``rank_event`` rows) is written there as
    JSONL.
    """
    import time

    from repro.core.lacc_spmd import lacc_spmd
    from repro.mpisim import backend as backend_mod
    from repro.parallel.obsband import collect_rank_obs, enable_rank_obs
    from repro.parallel.pool import get_pool

    from .anomaly import default_detectors
    from .flight import FlightRecorder
    from .metrics import MetricRegistry

    tracer = Tracer(clock=time.monotonic)
    registry = MetricRegistry()
    fr = FlightRecorder(path=flight_path, detectors=default_detectors())
    with enable_rank_obs(), backend_mod.use("proc"), \
            activate(tracer, metrics=registry, flight=fr):
        res = lacc_spmd(g, ranks=ranks, **kwargs)
        obs = collect_rank_obs(get_pool(ranks))
    fr.finish()
    # fold each rank's deterministic record into the conductor record as
    # rank_event rows (re-recorded so the conductor's seq stays dense)
    for r in sorted(obs.flight_events):
        for ev in obs.flight_events[r]:
            extra = {
                k: v
                for k, v in ev.data.items()
                if k not in ("rank", "iteration", "step")
            }
            fr.record(
                "rank_event",
                rank=ev.rank if ev.rank is not None else r,
                iteration=ev.iteration,
                step=ev.step,
                rank_kind=ev.kind,
                rank_seq=ev.seq,
                rank_ts=ev.ts,
                **extra,
            )
    fr.close()
    res.registry = registry
    res.flight = fr
    return res, tracer, obs
