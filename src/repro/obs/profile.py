"""The one-call real-process profile of ``python -m repro profile
--backend=proc``.

This module imports :mod:`repro.core`, so it is *not* re-exported from
``repro.obs`` — import it explicitly (``from repro.obs import profile``)
to keep the tracer substrate dependency-free for the layers it hooks.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .tracer import Tracer, activate

__all__ = ["trace_lacc_proc"]


def trace_lacc_proc(
    g, ranks: int = 4, flight_path: Optional[str] = None, **kwargs
) -> Tuple["object", Tracer, "object"]:
    """Run literal-SPMD LACC on the real-process backend with per-rank
    observability, and collect every worker's obs bundle.

    Returns ``(LACCResult, conductor_tracer, RankObsResult)``.  The
    conductor tracer runs on ``time.monotonic()`` — the same clock domain
    the workers trace in — so
    :meth:`~repro.parallel.obsband.RankObsResult.merged_trace` yields one
    Chrome trace with a pid lane per rank plus the conductor.
    When *flight_path* is given, the conductor's flight record (with each
    rank's record merged in as ``rank_event`` rows) is written there as
    JSONL.
    """
    import time

    from repro.core.lacc_spmd import lacc_spmd
    from repro.mpisim import backend as backend_mod
    from repro.parallel.obsband import (
        collect_rank_obs,
        enable_rank_obs,
        record_rank_events,
    )
    from repro.parallel.pool import get_pool

    from .anomaly import default_detectors
    from .flight import FlightRecorder

    tracer = Tracer(clock=time.monotonic)
    fr = FlightRecorder(path=flight_path, detectors=default_detectors())
    with enable_rank_obs(), backend_mod.use("proc"), \
            activate(tracer, flight=fr):
        res = lacc_spmd(g, ranks=ranks, **kwargs)
        obs = collect_rank_obs(get_pool(ranks))
    fr.finish()
    # fold each rank's deterministic record into the conductor record
    record_rank_events(fr, obs.flight_events)
    fr.close()
    return res, tracer, obs
