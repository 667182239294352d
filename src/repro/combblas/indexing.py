"""Distributed ``GrB_extract`` / ``GrB_assign`` — request routing with
skew detection and broadcast offloading (§V-B).

Indexing a distributed vector by parent ids is the communication hot spot
of LACC: conditional hooking's *(Select2nd, min)* semiring concentrates
parent ids at small values, so the low-rank processes that own them receive
vastly more requests than everyone else (the paper's Figure 3).  The
mitigation pipeline reproduced here:

1. **skew detection** — count incoming requests per owner rank (an exact
   bincount over the ownership map);
2. **broadcast offload** — a rank receiving more than ``h×`` its local
   element count broadcasts its whole local vector part instead of
   answering point-to-point (non-blocking ``MPI_Ibcast`` in the paper, so
   multiple broadcasts overlap — we charge the max, not the sum);
3. **sparse hypercube all-to-all** — remaining requests are exchanged with
   Sundar et al.'s hypercube scheme among only the ranks that still have
   data (α·log p rather than the pairwise α·(p−1) that stopped scaling
   past 1024 ranks).

:func:`route_requests` returns a :class:`RoutingReport` whose
``received_per_rank`` is exactly the series Figure 3 plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.mpisim import collectives
from repro.mpisim.costmodel import CostModel
from repro.mpisim.grid import ProcessGrid
from repro.obs.tracer import current as _obs

__all__ = ["RoutingReport", "route_requests", "charge_assign", "charge_extract"]

#: default over-subscription factor triggering broadcast offload ("If a
#: processor receives h times more requests than the total number of
#: elements it has, it broadcasts" — h is system-tunable, §V-B)
DEFAULT_H = 4.0


@dataclass
class RoutingReport:
    """Outcome of routing one batch of index requests."""

    received_per_rank: np.ndarray  # Figure 3's series
    broadcast_ranks: np.ndarray  # ranks that offloaded to a broadcast
    active_ranks: int  # ranks left in the sparse all-to-all
    words_critical: float  # per-rank words on the critical path
    seconds: float = 0.0

    @property
    def skew(self) -> float:
        """max/mean received requests (1.0 = perfectly balanced)."""
        mean = self.received_per_rank.mean()
        return float(self.received_per_rank.max() / mean) if mean > 0 else 1.0


def route_requests(
    grid: ProcessGrid,
    cost: CostModel,
    targets: np.ndarray,
    requesters: Optional[np.ndarray],
    phase: str,
    h: Optional[float] = None,
    use_broadcast_offload: bool = True,
    use_hypercube: bool = True,
    words_per_request: float = 2.0,
) -> RoutingReport:
    """Price one distributed indexed read/write.

    Parameters
    ----------
    targets:
        Global vector indices being accessed (e.g. the parent values when
        extracting grandparents ``f[f]``).
    requesters:
        Global indices of the vertices issuing the requests (determines
        which rank *sends* each request); ``None`` if the requests
        originate uniformly.
    words_per_request:
        Request + reply payload per element (index and value).
    """
    if h is None:
        h = DEFAULT_H  # read at call time so sweeps can retune it
    p = grid.nprocs
    targets = np.asarray(targets, dtype=np.int64)
    received = grid.vec_counts(targets).astype(np.int64)

    if targets.size == 0 or p == 1:
        return RoutingReport(received, np.empty(0, dtype=np.int64), 0, 0.0, 0.0)

    # --- skew detection & broadcast offload --------------------------
    local_elems = grid.local_sizes()
    if use_broadcast_offload:
        hot = received > h * np.maximum(local_elems, 1)
        broadcast_ranks = np.flatnonzero(hot)
    else:
        broadcast_ranks = np.empty(0, dtype=np.int64)

    seconds = 0.0
    if broadcast_ranks.size:
        # non-blocking Ibcasts proceed independently: charge the largest
        bcast_words = float(local_elems[broadcast_ranks].max(initial=0))
        seconds += collectives.bcast(cost, p, bcast_words, phase)

    # --- remaining point-to-point traffic -----------------------------
    remaining = received.copy()
    remaining[broadcast_ranks] = 0
    if requesters is not None:
        sent = grid.vec_counts(np.asarray(requesters, dtype=np.int64)).astype(np.int64)
        # requests to broadcast ranks are answered locally after the bcast
        frac_kept = remaining.sum() / max(received.sum(), 1)
        sent = sent * frac_kept
        words_crit = float(max(remaining.max(initial=0), sent.max(initial=0)))
        send_active = int(np.count_nonzero(sent))
    else:
        words_crit = float(remaining.max(initial=0))
        # senders unknown: assume every rank issues requests while any
        # point-to-point traffic remains
        send_active = p if remaining.sum() > 0 else 0
    words_crit *= words_per_request

    # the all-to-all involves every rank that sends OR receives
    active = min(p, max(int(np.count_nonzero(remaining)), send_active))
    if active > 1 and words_crit > 0:
        if use_hypercube:
            seconds += collectives.alltoallv_sparse(cost, active, words_crit, phase)
        else:
            seconds += collectives.alltoallv_pairwise(cost, p, words_crit, phase)
    # local gather/scatter work at the owners
    seconds += cost.charge_compute(float(received.max(initial=0)), phase)

    return RoutingReport(received, broadcast_ranks, active, words_crit, seconds)


def charge_extract(
    grid: ProcessGrid,
    cost: CostModel,
    index_values: np.ndarray,
    requester_indices: Optional[np.ndarray],
    phase: str,
    **kw,
) -> RoutingReport:
    """``GrB_extract w = u[indices]`` — cost driven by nnz(w) (§V-A)."""
    with _obs().span("extract", "combblas") as sp:
        rep = route_requests(grid, cost, index_values, requester_indices, phase, **kw)
        if sp:
            sp.add("requests", int(np.asarray(index_values).size))
            sp.set("skew", rep.skew)
            sp.set("received_per_rank", rep.received_per_rank.tolist())
            sp.set("broadcast_ranks", rep.broadcast_ranks.tolist())
        return rep


def charge_assign(
    grid: ProcessGrid,
    cost: CostModel,
    target_indices: np.ndarray,
    source_indices: Optional[np.ndarray],
    phase: str,
    **kw,
) -> RoutingReport:
    """``GrB_assign w[indices] = u`` — cost driven by nnz(u) (§V-A)."""
    with _obs().span("assign", "combblas") as sp:
        rep = route_requests(grid, cost, target_indices, source_indices, phase, **kw)
        if sp:
            sp.add("requests", int(np.asarray(target_indices).size))
            sp.set("skew", rep.skew)
            sp.set("received_per_rank", rep.received_per_rank.tolist())
            sp.set("broadcast_ranks", rep.broadcast_ranks.tolist())
        return rep
