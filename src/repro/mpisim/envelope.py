"""Backend-neutral collective machinery: the two collectives + the one fault envelope.

Two communicator backends run LACC's two collectives — the in-process
:class:`~repro.mpisim.comm.SimComm` (per-rank buffers moved by pure
functions) and the real-process :class:`~repro.parallel.ProcComm` (ranks
are worker OS processes exchanging payloads through shared memory).
Everything that must behave *identically* on both lives here:

* the one body of ``alltoallv`` and of ``allreduce`` on
  :class:`CommBase`: argument validation (so both backends reject
  malformed calls with the same errors, before any data moves), the
  words/messages counts, the span, the collective's one draw from the
  :class:`~repro.faults.FaultPlan`, the destination-major leaf order and
  the delivery.  A backend supplies only the data exchange
  (``_exchange_alltoallv`` / ``_exchange_allreduce``), which takes the
  drawn call and delivers its process faults — the simulator as typed
  errors, the proc backend as signals to its workers — with victims and
  log lines from :meth:`CommBase._process_faults`; the reductions both
  accept are the wire table :data:`REDUCE_OPS`;
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
* the **rank runner** (:meth:`CommBase.run_ranks`), the only code that
  hands one rank program's buffers to another;
* the **failure exit** (:func:`fail`) every collective error leaves
  through — the envelope's, the proc backend's worker-death
  classification and the simulator's model of process faults alike.

In :meth:`CommBase._deliver` payloads are checksummed at the sender,
validated at the receiver, and damaged deliveries are retransmitted.
Fault injection happens at the *message boundary* — on the flattened
leaf buffers a collective would deliver — and the fault-free delivery
(*leaves*) is held fixed across attempts while the plan's per-attempt
injection is re-applied; a backend therefore runs its physical data
movement once and hands the result to the envelope.
"""

from __future__ import annotations

from contextlib import ExitStack
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from repro.faults.errors import CollectiveError
from repro.faults.injector import checksums, inject
from repro.faults.plan import FaultRule
from repro.obs.tracer import flight_recorder as _freg
from repro.obs.tracer import current as _obs

from .machine import MachineModel

__all__ = [
    "CommBase",
    "REDUCE_CODES",
    "REDUCE_OPS",
    "backoff_base",
    "calling_iteration",
    "chaos_victim",
    "fail",
    "fault_envelope",
    "note_fault",
    "straggler_rank",
]


#: the reductions ``allreduce`` accepts, by wire code: the proc backend
#: sends the code and its workers resolve it back
REDUCE_OPS: Dict[int, Callable] = {
    1: np.add,
    2: np.minimum,
    3: np.maximum,
    4: np.multiply,
    5: np.logical_or,
    6: np.logical_and,
    7: np.bitwise_or,
    8: np.bitwise_and,
}
REDUCE_CODES = {fn: code for code, fn in REDUCE_OPS.items()}


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


def chaos_victim(plan, call_index: int, size: int) -> int:
    """Deterministic victim rank of a process fault: the hash family of
    :func:`straggler_rank`, salted with the call index so successive
    faults of one plan spread across ranks."""
    return (0x9E3779B9 * (plan.seed + 1) + call_index) % max(size, 1)


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


def fail(name: str, attempts: int, kinds: Sequence[str],
         phase: Optional[str] = None, *, size: int = 0,
         lost: Optional[Sequence[int]] = None,
         stalled: Sequence[int] = ()) -> NoReturn:
    """The one failure exit of every collective path: record the flight
    ``collective_error`` and raise the typed
    :class:`~repro.faults.CollectiveError`.

    *lost* is passed by the process-fault paths only (the proc backend's
    failure detector and the simulator's process-fault model): each lost
    rank is first recorded as a ``rank_lost`` event (*size* ranks before
    the loss), and the error event carries the lost and stalled rank
    lists.
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
        fail(name, 1, ["crash"], phase)
    if first is not None:
        first()
    for rule in call.delays():
        extra = price_delay(rule.delay_factor)
        note_fault(call, rule, 0, straggler_rank(call.plan, ranks),
                   f"straggler x{rule.delay_factor:g}",
                   delay_factor=rule.delay_factor, delay_seconds=extra)
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
        with _obs().span("retry", "fault", collective=name, attempt=k,
                         kinds=",".join(kinds)) as rsp:
            charge_retry(backoff, rsp)
            if rsp:
                rsp.add("backoff_seconds", backoff)


class CommBase:
    """Shared state, collectives and fault envelope of both backends.

    Parameters
    ----------
    size:
        Number of ranks (must be an integral value >= 1).
    faults:
        Optional :class:`~repro.faults.FaultPlan`; when given, every
        collective draws one call from it: its process faults fire in the
        exchange and its delivery runs through :func:`fault_envelope`.
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
    # the two collectives; a backend supplies only the data exchange
    # ------------------------------------------------------------------
    #: tracer category of the collective spans, one per backend
    category = "simcomm"

    # a backend defines _exchange_alltoallv(sp, send, call) -> recv[j][i]
    # and _exchange_allreduce(sp, arrs, op, call) -> one total per rank,
    # delivering the process faults of the collective's drawn call

    def _check(self, bufs: Sequence, what: str = "buffer") -> None:
        if len(bufs) != self.size:
            raise ValueError(
                f"rank ids are contiguous 0..{self.size - 1}: expected one "
                f"{what} per rank ({self.size}), got {len(bufs)}"
            )

    def alltoallv(
        self, send: Sequence[Sequence[np.ndarray]]
    ) -> List[List[np.ndarray]]:
        """``send[i][j]`` is what rank *i* sends to rank *j*; the result's
        ``recv[j][i]`` is what rank *j* received from rank *i*."""
        p = self.size
        self._check(send, what="send-buffer row")
        for i, row in enumerate(send):
            if len(row) != p:
                raise ValueError(
                    f"alltoallv: rank {i} must provide one send buffer for "
                    f"each of the contiguous ranks 0..{p - 1} "
                    f"({p} buffers), got {len(row)}"
                )
        with _obs().span("alltoallv", self.category, ranks=p) as sp:
            w = [[int(np.asarray(send[i][j]).size) for j in range(p)] for i in range(p)]
            off_diag = [w[i][j] for i in range(p) for j in range(p) if i != j]
            words = sum(off_diag)
            messages = sum(1 for x in off_diag if x > 0)
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
                sp.set("rank_send_totals", [sum(row) for row in w])
                sp.set("rank_recv_totals", [sum(w[i][j] for i in range(p)) for j in range(p)])
            call = None if self.faults is None else self.faults.begin_call("alltoallv")
            recv = self._exchange_alltoallv(sp, send, call)
            # flatten destination-major, so one fault seed damages the
            # same buffer on both backends
            flat = [recv[j][i] for j in range(p) for i in range(p)]

            def rebuild(leaves):
                return [list(leaves[j * p : (j + 1) * p]) for j in range(p)]

            return self._deliver(call, flat, rebuild, sp, words, messages)

    def allreduce(
        self, bufs: Sequence[np.ndarray], op: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> List[np.ndarray]:
        """Element-wise reduction, folded in rank order, visible on every
        rank.  *op* is one of :data:`REDUCE_OPS` and the buffers share
        one shape."""
        self._check(bufs)
        arrs = [np.asarray(b) for b in bufs]
        if any(a.shape != arrs[0].shape for a in arrs):
            raise ValueError(
                "allreduce needs buffers of one shape, got "
                f"{[a.shape for a in arrs]}"
            )
        if op not in REDUCE_CODES:
            raise TypeError(
                "allreduce op must be one of "
                f"{', '.join(fn.__name__ for fn in REDUCE_OPS.values())}, "
                f"got {getattr(op, '__name__', type(op).__name__)}"
            )
        p = self.size
        with _obs().span("allreduce", self.category, ranks=p) as sp:
            words = int(arrs[0].size) * 2 * (p - 1)
            messages = 2 * p * (p - 1)
            if sp:
                sp.add("words", words)
                sp.add("messages", messages)
            call = None if self.faults is None else self.faults.begin_call("allreduce")
            out = self._exchange_allreduce(sp, arrs, op, call)
            return self._deliver(call, out, list, sp, words, messages)

    def run_ranks(self, programs: Sequence, tracer=None) -> Tuple[list, int]:
        """Run one program per rank in lockstep; the one world view.

        A rank program is a generator over its rank's own state, and all
        yield the same kind at the same point: a list is its ``alltoallv``
        send row (one array per destination), answered with its receive
        row; an ndarray its ``allreduce`` contribution under ``np.add``,
        answered with the total; a str names the ``step`` span on
        *tracer* (default: the active one) that holds its work up to the
        next name, its return or an exception.  Returns the programs'
        return values and the words their ``alltoallv``\\ s moved off-rank.
        """
        self._check(programs, what="rank program")
        tr = _obs() if tracer is None else tracer
        inbox: list = [None] * self.size
        words = 0
        with ExitStack() as step:
            while True:
                sent, done = [], []
                for r, prog in enumerate(programs):
                    try:
                        sent.append(prog.send(inbox[r]))
                    except StopIteration as stop:
                        done.append(stop.value)
                    inbox[r] = None  # the rank alone holds what it got
                kinds = {type(s) for s in sent}
                if (done and sent) or len(kinds) > 1:
                    raise RuntimeError("rank programs fell out of lockstep")
                if done:
                    return done, words
                if isinstance(sent[0], str):
                    step.close()
                    step.enter_context(tr.span(sent[0], "step"))
                elif isinstance(sent[0], np.ndarray):
                    inbox = self.allreduce(sent, np.add)
                else:
                    words += sum(m.size for r, row in enumerate(sent)
                                 for o, m in enumerate(row) if o != r)
                    inbox = self.alltoallv(sent)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def _process_faults(self, call) -> List[Tuple[FaultRule, int]]:
        """The process-fault rules *call* drew, each with its victim: the
        rule's rank, else :func:`chaos_victim`.  Each is logged in the
        same words on both backends, so one seed logs byte-identically;
        the backend's exchange then delivers them."""
        hits = []
        for rule in call.proc() if call else ():
            victim = (chaos_victim(call.plan, call.index, self.size)
                      if rule.rank is None else rule.rank % self.size)
            stall = f" for {rule.stall_seconds:g}s" if rule.kind == "stop" else ""
            note_fault(call, rule, 0, victim, f"{rule.kind} rank {victim}{stall}")
            hits.append((rule, victim))
        return hits

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

    def _deliver(self, call, leaves, rebuild, sp, words: int, messages: int):
        """Run one collective's receive buffers through its drawn *call*.

        *leaves* is the flattened list of per-destination buffers the
        fault-free network would deliver; *rebuild* restores the
        collective's result shape.  Each attempt re-injects the plan's
        payload damage into a copy of *leaves*, and the receiver accepts
        it only if its CRCs match the sender's; the retry, backoff and
        failure policy is :func:`fault_envelope`'s.
        """
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
