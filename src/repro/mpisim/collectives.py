"""Collective-communication cost formulas.

Each function prices one collective over *p* ranks and charges it into a
:class:`~repro.mpisim.costmodel.CostModel`.  The formulas are the standard
MPI implementation costs the paper cites (§V-A, [31]) plus the two custom
all-to-alls of §V-B:

* ``alltoallv_pairwise`` — Cray MPI's default pairwise exchange,
  ``α·(p-1) + β·w``; this is the latency term that stops scaling past
  ~1K ranks on skewed traffic (§V-B).
* ``alltoallv_hypercube`` — Sundar et al.'s hypercube scheme,
  ``α·log p + β·w·log p`` (message count drops from *p−1* to *log p* at
  the price of log-fold forwarding volume).
* ``alltoallv_sparse`` — hypercube over only the ranks that actually have
  data, after broadcast-offloading the hot ranks (see
  :func:`repro.combblas.indexing.route_requests`).

Word counts are per the *critical-path* rank; callers obtain them from
ownership bincounts over the distributed objects.

Fault injection
---------------
When the cost model carries a :class:`~repro.faults.FaultPlan`
(``CostModel(..., faults=plan)``), every collective runs through the
fault loop the literal communicators share
(:func:`repro.mpisim.envelope.fault_envelope`), with analytic pricing:
a straggler ``delay`` charges ``(delay_factor − 1)×`` the collective's
priced time; there is no payload to checksum, so delivery fails while
any data/transport rule is active, and each retry re-charges the full
collective plus the backoff
``machine.retry_backoff_base · 2^(k−1) · jitter(k)`` inside a nested
``retry`` span, so the simulated-clock trace shows recovery time
honestly; a fault that outlives the bounded retries raises
:class:`~repro.faults.CollectiveError`.  Two composition notes: the
analytic ``allreduce`` decomposes into ``reduce_scatter`` + ``allgather``
(match those names), and ``alltoallv_sparse`` delegates to
``alltoallv_hypercube`` over the active ranks.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.obs.tracer import current as _obs

from .costmodel import CostModel
from .envelope import fault_envelope, note_fault

__all__ = [
    "bcast",
    "allgather",
    "reduce_scatter",
    "allreduce",
    "alltoallv_pairwise",
    "alltoallv_hypercube",
    "alltoallv_sparse",
]


def _log2(p: int) -> float:
    return math.log2(p) if p > 1 else 0.0


def _collective(
    cost: CostModel, name: str, p: int, phase: Optional[str],
    charge: Callable[[], float],
) -> float:
    """Charge one collective inside its span and replay the cost model's
    fault plan through the shared fault envelope.

    *charge* performs the fault-free charges and returns the seconds it
    added; it is invoked again for every retransmission so retries are
    priced identically to first deliveries.
    """
    with _obs().span(name, "collective", ranks=p), cost.kind(name):
        plan = cost.faults
        call = None if plan is None else plan.begin_call(name, phase)
        if not call:
            return charge()
        dt = 0.0

        def first() -> None:
            nonlocal dt
            dt += charge()

        def price_delay(factor: float) -> float:
            nonlocal dt
            extra = (factor - 1.0) * dt
            with cost.kind("fault_delay"):
                cost.charge_seconds(extra, phase, "fault_delay")
            dt += extra
            return extra

        def attempt(k, active):
            # no payload to checksum: every still-active rule fails delivery
            for rule in active:
                note_fault(call, rule, k, None, "detected by validation")
            return not active, dt

        def charge_retry(backoff: float, rsp) -> None:
            nonlocal dt
            with cost.kind("fault_backoff"):
                dt += cost.charge_seconds(backoff, phase, "fault_backoff")
            dt += charge()  # full retransmission

        return fault_envelope(call, cost.ranks, cost, attempt, price_delay,
                              charge_retry, first=first)


def bcast(cost: CostModel, p: int, words: float, phase: Optional[str] = None) -> float:
    """Binomial-tree broadcast of *words* words to *p* ranks."""
    if p <= 1 or words <= 0:
        return 0.0
    return _collective(
        cost, "bcast", p, phase,
        lambda: cost.charge_comm(words * _log2(p), math.ceil(_log2(p)), phase),
    )


def allgather(
    cost: CostModel, p: int, words_per_rank: float, phase: Optional[str] = None
) -> float:
    """Recursive-doubling allgather: every rank contributes
    *words_per_rank* and ends with all ``p·words_per_rank`` words.

    Cost ``α·log p + β·(p-1)·w`` — the first (gather) stage of the
    paper's SpMV/SpMSpV (§V-A).
    """
    if p <= 1:
        return 0.0
    return _collective(
        cost, "allgather", p, phase,
        lambda: cost.charge_comm((p - 1) * words_per_rank, math.ceil(_log2(p)), phase),
    )


def reduce_scatter(
    cost: CostModel, p: int, words_total: float, phase: Optional[str] = None
) -> float:
    """Reduce-scatter of a *words_total*-word vector across *p* ranks:
    ``α·log p + β·(p-1)/p·W`` plus the same number of reduction ops."""
    if p <= 1:
        return 0.0
    moved = (p - 1) / p * words_total

    def charge() -> float:
        dt = cost.charge_comm(moved, math.ceil(_log2(p)), phase)
        dt += cost.charge_compute(moved, phase)
        return dt

    return _collective(cost, "reduce_scatter", p, phase, charge)


def allreduce(
    cost: CostModel, p: int, words: float, phase: Optional[str] = None
) -> float:
    """Allreduce = reduce-scatter + allgather on *words* words."""
    if p <= 1:
        return 0.0
    dt = reduce_scatter(cost, p, words, phase)
    dt += allgather(cost, p, words / p, phase)
    return dt


def alltoallv_pairwise(
    cost: CostModel,
    p: int,
    words_max_rank: float,
    phase: Optional[str] = None,
) -> float:
    """Pairwise-exchange all-to-all: ``α·(p-1) + β·w_max``.

    *words_max_rank* is the larger of the maximum words any rank sends or
    receives (the critical path under skew).
    """
    if p <= 1:
        return 0.0
    return _collective(
        cost, "alltoallv_pairwise", p, phase,
        lambda: cost.charge_comm(words_max_rank, p - 1, phase),
    )


def alltoallv_hypercube(
    cost: CostModel,
    p: int,
    words_max_rank: float,
    phase: Optional[str] = None,
) -> float:
    """Sundar et al.'s hypercube all-to-all: ``α·log p + β·w_max·log p``.

    Messages shrink from *p−1* to *log p*; forwarded data inflates the
    bandwidth term by the same log factor in the worst case.
    """
    if p <= 1:
        return 0.0
    lg = math.ceil(_log2(p))
    return _collective(
        cost, "alltoallv_hypercube", p, phase,
        lambda: cost.charge_comm(words_max_rank * max(lg, 1), lg, phase),
    )


def alltoallv_sparse(
    cost: CostModel,
    active_ranks: int,
    words_max_rank: float,
    phase: Optional[str] = None,
) -> float:
    """Sparse hypercube all-to-all among only the *active_ranks* ranks
    that have data (§V-B: "processes 7–15 have no data to communicate …
    only P1–P5 exchange data")."""
    if active_ranks <= 1:
        return 0.0
    return alltoallv_hypercube(cost, active_ranks, words_max_rank, phase)
