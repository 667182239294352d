"""Backend-neutral collective machinery: validation + the one fault envelope.

Two communicator backends implement the same collectives API — the
in-process :class:`~repro.mpisim.comm.SimComm` (per-rank buffers moved by
pure functions) and the real-process :class:`~repro.parallel.ProcComm`
(ranks are worker OS processes exchanging payloads through shared
memory).  Everything that must behave *identically* on both lives here:

* argument validation (``_check`` / ``_check_root`` / scatter-chunk
  normalisation / all-to-all row checks / reduce-scatter length checks),
  so both backends reject malformed calls with the same errors;
* the **fault envelope** (:func:`fault_envelope`), the one fault-delivery
  loop of every collective path — the analytic α–β collectives of
  :mod:`repro.mpisim.collectives` and the payload-carrying
  :meth:`CommBase._deliver` of both backends.  It runs crash check →
  straggler delays → attempt loop → backoff
  ``retry_backoff_base · 2^(k−1) · jitter(k)`` → typed failure, and each
  caller supplies only its pricing and its notion of a delivery attempt,
  so one :class:`~repro.faults.FaultPlan` seed means one schedule, one
  set of backoffs and one :class:`~repro.faults.CollectiveError` on
  every path;
* the **failure exit** (:func:`fail`) every collective error leaves
  through — the envelope's, the proc backend's worker-death
  classification and the chaos injector's sim model alike.

In :meth:`CommBase._deliver` payloads are checksummed at the sender,
validated at the receiver, and damaged deliveries are retransmitted.
Fault injection happens at the *message boundary* — on the flattened
leaf buffers a collective would deliver — and the fault-free delivery
(*leaves*) is held fixed across attempts while the plan's per-attempt
injection is re-applied; a backend therefore runs its physical data
movement once and hands the result to the envelope.
"""

from __future__ import annotations

from typing import List, NoReturn, Optional, Sequence

import numpy as np

from repro.faults.errors import CollectiveError
from repro.faults.injector import checksums, inject
from repro.obs.tracer import flight_recorder as _freg
from repro.obs.tracer import metrics_registry as _mreg
from repro.obs.tracer import current as _obs

from .machine import MachineModel

__all__ = [
    "CommBase",
    "backoff_base",
    "calling_iteration",
    "fail",
    "fault_envelope",
    "note_fault",
    "straggler_rank",
]


def calling_iteration() -> Optional[int]:
    """Iteration of the innermost open ``iteration`` span, if any — so a
    :class:`CollectiveError` can say *when* the collective died."""
    sp = _obs().innermost("iteration")
    return None if sp is None else sp.attrs.get("iteration")


def straggler_rank(plan, ranks: int) -> int:
    """Deterministic victim rank for a plan's ``delay`` faults.

    A real straggler is a *node*: every delay of one run hits the same
    rank.  Deriving it from the seed (Fibonacci hashing, so neighbouring
    seeds land on different ranks) keeps the fault log byte-reproducible
    while giving the flight record — and the straggler detector — a
    persistent rank to name.
    """
    return (0x9E3779B9 * (plan.seed + 1)) % max(ranks, 1)


def backoff_base(cost) -> float:
    """Simulated seconds of backoff before the first retransmission: the
    attached cost model's ``machine.retry_backoff_base``, else the
    :class:`~repro.mpisim.machine.MachineModel` default."""
    if cost is None:
        return MachineModel.retry_backoff_base
    return cost.machine.retry_backoff_base


def note_fault(call, rule, attempt: int, rank=None, detail: str = "", **extra):
    """Log one injected fault: the plan's event log, a flight ``fault``
    event (plus *extra* fields) and the ``sim_faults_total`` counter."""
    call.record(rule, attempt, rank, detail)
    fr = _freg()
    if fr:
        fr.record("fault", rank=rank, step=call.phase, collective=call.collective,
                  fault_kind=rule.kind, attempt=attempt, **extra)
    reg = _mreg()
    if reg:
        reg.counter("sim_faults_total", "injected faults, by kind",
                    collective=call.collective, kind=rule.kind).inc()


def fail(name: str, attempts: int, kinds: Sequence[str],
         phase: Optional[str] = None, *, size: int = 0,
         lost: Optional[Sequence[int]] = None,
         stalled: Sequence[int] = ()) -> NoReturn:
    """The one failure exit of every collective path: record the flight
    ``collective_error``, count it, and raise the typed
    :class:`~repro.faults.CollectiveError`.

    *lost* is passed by the process-fault paths only (the proc backend's
    failure detector and the chaos injector's sim model): each lost rank
    is first recorded as a ``rank_lost`` event (*size* ranks before the
    loss), and the error event carries the lost and stalled rank lists.
    """
    fr = _freg()
    if fr:
        extra = {}
        if lost is not None:
            for r in lost:
                fr.record("rank_lost", rank=r, collective=name,
                          survivors=size - len(lost))
            extra = {"lost_ranks": list(lost), "stalled_ranks": list(stalled)}
        fr.record("collective_error", step=phase, collective=name,
                  kinds=list(kinds), attempts=attempts, **extra)
    reg = _mreg()
    if reg:
        reg.counter("sim_collective_errors_total",
                    "collectives that failed permanently", collective=name).inc()
    raise CollectiveError(name, attempts, kinds, phase,
                          iteration=calling_iteration(), lost_ranks=lost or ())


def fault_envelope(call, ranks: int, cost, attempt, price_delay, charge_retry,
                   *, first=None, sp=None):
    """Run one collective call that drew faults through the fault loop.

    *call* is the truthy :class:`~repro.faults.FaultCall` of the
    collective; the loop runs crash check → ``first()`` → straggler
    delays → attempt loop → backoff → typed failure (:func:`fail`).  The
    caller supplies its pricing and its notion of a delivery:

    * ``first()`` — charge the fault-free delivery, when the caller
      prices it only once no rank has crashed (the analytic layer);
    * ``price_delay(factor) -> seconds`` — charge one straggler's excess
      time over the fault-free delivery;
    * ``attempt(k, active) -> (ok, result)`` — delivery attempt *k*
      under the still-active rules, logging each injection with
      :func:`note_fault`;
    * ``charge_retry(backoff, span)`` — price one retransmission plus
      *backoff* seconds, inside its ``retry`` span.

    Retransmission *k* waits ``backoff_base(cost) · 2^(k−1) ·
    call.backoff_jitter(k)`` simulated seconds.  Returns the successful
    attempt's *result*.  *sp*, when given, is the collective's span and
    collects the attempt bookkeeping.
    """
    name, phase = call.collective, call.phase
    crashed = call.crashes()
    if crashed:
        # a rank died mid-collective: nothing was delivered and no retry
        # can bring the rank back — fail immediately and let a supervisor
        # (repro.recovery) restart from checkpointed state
        for rule in crashed:
            note_fault(call, rule, 0, None, "rank died mid-collective")
        if sp:
            sp.add("faults_detected", len(crashed))
            sp.set("crashed", True)
        fail(name, 1, ["crash"], phase)
    if first is not None:
        first()
    for rule in call.delays():
        extra = price_delay(rule.delay_factor)
        note_fault(call, rule, 0, straggler_rank(call.plan, ranks),
                   f"straggler x{rule.delay_factor:g}",
                   delay_factor=rule.delay_factor, delay_seconds=extra)
        if sp:
            sp.add("fault_delay_seconds", extra)
    base = backoff_base(cost)
    k = 0
    while True:
        active = call.active(k)
        ok, result = attempt(k, active)
        if ok:
            if sp:
                sp.add("delivery_attempts", k + 1)
                if k:
                    sp.add("retries", k)
            return result
        if sp:
            sp.add("faults_detected", 1)
        kinds = sorted({r.kind for r in active})
        k += 1
        if k > call.plan.max_retries:
            fail(name, k, kinds, phase)
        # seeded jitter (multiplier in [1, 2), deterministic per
        # (seed, call, attempt)) decorrelates synchronized retry storms
        # across ranks while keeping replays byte-exact
        backoff = base * 2 ** (k - 1) * call.backoff_jitter(k)
        fr = _freg()
        if fr:
            fr.record("retry", step=phase, collective=name, attempt=k,
                      kinds=kinds, backoff_seconds=backoff)
        reg = _mreg()
        if reg:
            reg.counter("sim_retries_total",
                        "collective retransmissions after validation failure",
                        collective=name).inc()
        with _obs().span("retry", "fault", collective=name, attempt=k,
                         kinds=",".join(kinds)) as rsp:
            charge_retry(backoff, rsp)
            if rsp:
                rsp.add("backoff_seconds", backoff)


class CommBase:
    """Shared state, validation and fault envelope of both backends.

    Parameters
    ----------
    size:
        Number of ranks (must be an integral value >= 1).
    faults:
        Optional :class:`~repro.faults.FaultPlan`; when given, every
        collective's delivery runs through :func:`fault_envelope`.
    cost:
        Optional :class:`~repro.mpisim.costmodel.CostModel`.  When
        attached, straggler delays, retransmissions and backoff are
        charged into it (phase ``"fault_recovery"``) so simulated-clock
        traces stay honest, and its machine sets the backoff base
        (:func:`backoff_base`).  Without one, the time lost to faults is
        accumulated in :attr:`fault_seconds`.
    """

    def __init__(self, size: int, faults=None, cost=None):
        if isinstance(size, float) and not size.is_integer():
            raise ValueError(f"communicator size must be an integer, got {size!r}")
        if int(size) < 1:
            raise ValueError("communicator size must be >= 1")
        self.size = int(size)
        self.faults = faults
        self.cost = cost
        #: simulated seconds lost to faults when no cost model is attached
        self.fault_seconds = 0.0

    # ------------------------------------------------------------------
    # validation shared by both backends
    # ------------------------------------------------------------------
    def _check(self, bufs: Sequence, what: str = "buffer") -> None:
        if len(bufs) != self.size:
            raise ValueError(
                f"rank ids are contiguous 0..{self.size - 1}: expected one "
                f"{what} per rank ({self.size}), got {len(bufs)}"
            )

    def _check_root(self, root: int) -> None:
        if not isinstance(root, (int, np.integer)):
            raise TypeError(f"root must be a rank id (int), got {type(root).__name__}")
        if not 0 <= root < self.size:
            raise ValueError(
                f"root {root} out of range for contiguous ranks 0..{self.size - 1}"
            )

    def _normalize_scatter_chunks(self, chunks: Optional[Sequence], root: int):
        """Resolve the two accepted ``scatter`` call shapes to the root's
        chunk list (see :meth:`SimComm.scatter` for the contract)."""
        if chunks is not None and len(chunks) == self.size and any(
            c is None for c in chunks
        ):
            # per-rank form: only the root's send buffer is meaningful
            for r, c in enumerate(chunks):
                if r != root and c is not None:
                    raise ValueError(
                        f"scatter send buffer provided on non-root rank {r} "
                        f"(per-rank form: every entry except root={root} must "
                        "be None)"
                    )
            chunks = chunks[root]
            if chunks is None:
                raise ValueError(
                    f"scatter per-rank form: root rank {root}'s entry must be "
                    f"its list of {self.size} chunks, got None"
                )
        if chunks is None:
            raise ValueError(
                "scatter needs the root's chunk list (one chunk per rank)"
            )
        if len(chunks) != self.size:
            raise ValueError(
                f"scatter chunk list does not match the communicator: ranks "
                f"are contiguous 0..{self.size - 1} so the root must provide "
                f"exactly {self.size} chunks (destination rank i gets "
                f"chunks[i]), got {len(chunks)}"
            )
        return chunks

    def _check_alltoallv_rows(self, send: Sequence[Sequence]) -> None:
        self._check(send, what="send-buffer row")
        for i, row in enumerate(send):
            if len(row) != self.size:
                raise ValueError(
                    f"alltoallv: rank {i} must provide one send buffer for "
                    f"each of the contiguous ranks 0..{self.size - 1} "
                    f"({self.size} buffers), got {len(row)}"
                )

    def _check_reduce_bufs(self, arrs: List[np.ndarray], block: bool) -> int:
        """Equal-length validation for (all)reduce; returns the length."""
        length = arrs[0].size
        if any(a.size != length for a in arrs):
            raise ValueError("reduce_scatter requires equal-length buffers")
        if block and length % self.size:
            raise ValueError("buffer length must divide evenly among ranks")
        return length

    # ------------------------------------------------------------------
    # fault-injection delivery
    # ------------------------------------------------------------------
    def _price_delay(self, factor: float, words: int, messages: int) -> float:
        """Charge a straggler's excess time over the fault-free delivery."""
        if self.cost is not None:
            extra = (factor - 1.0) * self.cost.comm_seconds(words, messages)
            self.cost.charge_seconds(extra, "fault_recovery", "fault_delay")
        else:
            extra = (factor - 1.0) * backoff_base(None)
            self.fault_seconds += extra
        return extra

    def _charge_retry(self, words: int, messages: int, backoff: float, rsp) -> None:
        """Price one retransmission: the payload again, plus backoff."""
        if self.cost is not None:
            self.cost.charge_comm(words, messages, "fault_recovery")
            self.cost.charge_seconds(backoff, "fault_recovery", "fault_backoff")
        else:
            self.fault_seconds += backoff
        if rsp:
            rsp.add("words", words)
            rsp.add("messages", messages)

    def _deliver(self, name, leaves, rebuild, sp, words: int, messages: int):
        """Run one collective's receive buffers through the fault plan.

        *leaves* is the flattened list of per-destination buffers the
        fault-free network would deliver; *rebuild* restores the
        collective's result shape.  Each attempt re-injects the plan's
        payload damage into a copy of *leaves*, and the receiver accepts
        it only if its CRCs match the sender's; the retry, backoff and
        failure policy is :func:`fault_envelope`'s.
        """
        if getattr(self, "backend", "sim") != "proc":
            # sim-side chaos: model the typed error a real process fault
            # would produce, from the same seeded schedule the proc
            # backend injects physically (ProcComm fires the injector in
            # _run, before the physical exchange — never twice).
            from repro.chaos.injector import active_injector

            inj = active_injector()
            if inj is not None:
                inj.fire_sim(name, self.size)
        plan = self.faults
        call = None if plan is None else plan.begin_call(name)
        if not call:
            return rebuild(leaves)
        expected = checksums(leaves)

        def attempt(k, active):
            if not active:
                return True, rebuild(leaves)
            rng = call.rng(k)
            delivered = list(leaves)
            transport_died = False
            for rule in active:
                if rule.kind == "fail":
                    note_fault(call, rule, k, None, "transport error")
                    transport_died = True
                else:
                    delivered, rank_i, detail = inject(rule.kind, delivered, rng)
                    note_fault(call, rule, k, rank_i, detail)
            # receiver-side validation: recompute checksums over what
            # actually arrived and compare with the sender's manifest
            ok = not transport_died and checksums(delivered) == expected
            return ok, (rebuild(delivered) if ok else None)

        return fault_envelope(
            call, self.size, self.cost, attempt,
            lambda factor: self._price_delay(factor, words, messages),
            lambda backoff, rsp: self._charge_retry(words, messages, backoff, rsp),
            sp=sp,
        )
