"""Deterministic fault plans.

A :class:`FaultPlan` decides — reproducibly, from a seed — which
collective calls get which faults.  Both communication layers consult it:

* the communicators (:class:`repro.mpisim.SimComm`,
  :class:`repro.parallel.ProcComm`) draw one call per collective: they
  mutate real payloads and rely on checksum validation + retries to
  recover, and deliver (or, on the simulator, model) process faults;
* :mod:`repro.mpisim.collectives` (analytic α–β pricing) charges the
  straggler / retry / backoff time the same faults would cost.

Determinism contract
--------------------
All randomness is consumed in :meth:`FaultPlan.begin_call`, in rule
order, exactly once per matching rule per call.  Payload mutations use a
per-``(seed, call, attempt)`` child generator.  Therefore two runs with
identical plans and identical collective call sequences inject byte-for-
byte identical faults — :meth:`FaultPlan.to_json` of the event log is the
reproducibility witness the differential tests compare.

Transient vs. permanent
-----------------------
A rule with ``attempts=k`` corrupts the first *k* delivery attempts of a
matching call and then lets the retry succeed (a *transient* fault).  A
rule with ``permanent=True`` corrupts every attempt, so the envelope's
bounded retries exhaust and a typed
:class:`~repro.faults.errors.CollectiveError` is raised — never a wrong
answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "DATA_FAULT_KINDS",
    "PROC_FAULT_KINDS",
    "FaultRule",
    "FaultEvent",
    "FaultCall",
    "FaultPlan",
    "PRESETS",
    "PROC_PRESETS",
    "preset",
]

#: Buffer-mutating kinds (detected by checksum validation) plus the three
#: envelope-level kinds: ``delay`` (straggler, costs time but delivers
#: correct data), ``fail`` (the transport itself errors, retryable) and
#: ``crash`` (a rank dies mid-collective — unrecoverable by retry; the
#: envelope raises :class:`~repro.faults.errors.CollectiveError`
#: immediately and recovery is the job of ``repro.recovery``).
DATA_FAULT_KINDS = ("truncate", "corrupt", "duplicate", "zero")
#: Process-level kinds, delivered by the proc backend to its **real**
#: worker processes: ``kill`` (SIGKILL), ``stop`` (SIGSTOP, resumed after
#: ``stall_seconds`` — a real straggler), ``exit`` (SIGTERM, abnormal exit
#: code) and ``frame`` (a corrupt frame header written into a
#: shared-memory ring).  The CRC/retry envelope never injects these
#: (:meth:`FaultCall.active` excludes them); the simulator models them as
#: the classified :class:`~repro.faults.errors.CollectiveError` the real
#: fault produces.
PROC_FAULT_KINDS = ("kill", "stop", "exit", "frame")
FAULT_KINDS = DATA_FAULT_KINDS + ("delay", "fail", "crash") + PROC_FAULT_KINDS

#: kinds the delivery envelope never applies to buffers (handled before
#: delivery, or delivered to the processes by the communicator)
_NON_DELIVERY_KINDS = ("delay", "crash") + PROC_FAULT_KINDS


@dataclass(frozen=True)
class FaultRule:
    """One match-and-inject rule.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    collective:
        Collective name to match (``"alltoallv"`` or ``"allreduce"``);
        ``None`` matches every collective.
    phase:
        Cost-model phase to match (analytic layer only; the literal
        :class:`~repro.mpisim.SimComm` has no phases); ``None`` matches
        any.
    probability:
        Chance the rule fires on a matching call (drawn once per call).
    attempts:
        Number of delivery attempts the fault persists for once fired
        (transient faults recover on attempt ``attempts``).
    permanent:
        Fault every attempt; overrides *attempts*.
    delay_factor:
        For ``kind="delay"``: the straggler's slowdown — the collective
        is charged ``delay_factor×`` its fault-free time.
    max_injections:
        Total fire budget across the run (``None`` = unlimited).
    skip_calls:
        Number of matching calls to let through before the rule becomes
        eligible (models mid-run failures).
    rank:
        For process-level kinds: the worker rank to target (``None`` =
        :func:`~repro.mpisim.envelope.chaos_victim`; taken modulo the
        world size, so it still names a rank after a shrink).
    stall_seconds:
        For ``kind="stop"``: how long the victim stays SIGSTOPped before
        its pool delivers SIGCONT.
    """

    kind: str
    collective: Optional[str] = None
    phase: Optional[str] = None
    probability: float = 1.0
    attempts: int = 1
    permanent: bool = False
    delay_factor: float = 3.0
    max_injections: Optional[int] = None
    skip_calls: int = 0
    rank: Optional[int] = None
    stall_seconds: float = 3.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.delay_factor <= 1.0 and self.kind == "delay":
            raise ValueError("delay_factor must exceed 1 (a straggler is slower)")
        if self.max_injections is not None and self.max_injections < 1:
            raise ValueError("max_injections must be >= 1 when given")
        if self.skip_calls < 0:
            raise ValueError("skip_calls must be non-negative")
        if self.rank is not None and self.rank < 0:
            raise ValueError("rank must be non-negative when given")
        if self.stall_seconds <= 0.0:
            raise ValueError("stall_seconds must be positive")

    def matches(self, collective: str, phase: Optional[str]) -> bool:
        if self.collective is not None and self.collective != collective:
            return False
        if self.phase is not None and phase is not None and self.phase != phase:
            return False
        if self.phase is not None and phase is None:
            return False
        return True

    def active_at(self, attempt: int) -> bool:
        """Is the fault still corrupting delivery attempt *attempt*?"""
        if self.kind == "delay":
            return attempt == 0  # stragglers slow the first delivery only
        if self.kind == "crash":
            return True  # a dead rank stays dead — no retry can heal it
        return self.permanent or attempt < self.attempts


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault — a row of the reproducibility log."""

    index: int  # global injection sequence number
    call: int  # collective call sequence number
    collective: str
    phase: Optional[str]
    kind: str
    attempt: int
    rank: Optional[int]
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "call": self.call,
            "collective": self.collective,
            "phase": self.phase,
            "kind": self.kind,
            "attempt": self.attempt,
            "rank": self.rank,
            "detail": self.detail,
        }


class FaultCall:
    """The faults one collective call drew (see :meth:`FaultPlan.begin_call`)."""

    __slots__ = ("plan", "index", "collective", "phase", "fired")

    def __init__(
        self,
        plan: "FaultPlan",
        index: int,
        collective: str,
        phase: Optional[str],
        fired: Tuple[FaultRule, ...],
    ):
        self.plan = plan
        self.index = index
        self.collective = collective
        self.phase = phase
        self.fired = fired

    def __bool__(self) -> bool:
        return bool(self.fired)

    def active(self, attempt: int) -> List[FaultRule]:
        """Rules still corrupting this delivery attempt (``delay`` and
        ``crash`` are handled by the envelope before delivery; process-
        level kinds by the communicator before the exchange)."""
        return [
            r
            for r in self.fired
            if r.kind not in _NON_DELIVERY_KINDS and r.active_at(attempt)
        ]

    def delays(self) -> List[FaultRule]:
        return [r for r in self.fired if r.kind == "delay"]

    def crashes(self) -> List[FaultRule]:
        """Crash rules that fired on this call (checked before delivery:
        a dead rank never produces buffers to validate)."""
        return [r for r in self.fired if r.kind == "crash"]

    def proc(self) -> List[FaultRule]:
        """Process-level rules that fired on this call (consumed by the
        communicator's exchange, never by the delivery envelope)."""
        return [r for r in self.fired if r.kind in PROC_FAULT_KINDS]

    def rng(self, attempt: int) -> np.random.Generator:
        """Deterministic generator for payload mutations of one attempt."""
        return np.random.default_rng(
            [int(self.plan.seed) & 0xFFFFFFFF, self.index, attempt]
        )

    def backoff_jitter(self, attempt: int) -> float:
        """Deterministic retry-backoff jitter multiplier in ``[1, 2)``.

        Seeded per ``(seed, call, attempt)`` exactly like :meth:`rng` (a
        distinct stream constant keeps it independent of payload
        mutations), so replays are byte-exact while synchronized retry
        storms across ranks decorrelate.  Never below 1.0: jitter may
        only stretch a backoff, preserving every ``>= backoff_base``
        timing invariant."""
        rng = np.random.default_rng(
            [int(self.plan.seed) & 0xFFFFFFFF, self.index, attempt, 0x7F4A7C15]
        )
        return 1.0 + float(rng.random())

    def record(
        self,
        rule: FaultRule,
        attempt: int,
        rank: Optional[int] = None,
        detail: str = "",
    ) -> FaultEvent:
        """Append an injection event to the owning plan's log."""
        ev = FaultEvent(
            index=len(self.plan.events),
            call=self.index,
            collective=self.collective,
            phase=self.phase,
            kind=rule.kind,
            attempt=attempt,
            rank=rank,
            detail=detail,
        )
        self.plan.events.append(ev)
        return ev


class FaultPlan:
    """A seeded, stateful schedule of faults over a run's collectives.

    A plan is consumed as the run executes — build a **fresh plan** (same
    seed) for every run you want identical faults in, or call
    :meth:`reset` between runs.
    """

    def __init__(
        self,
        rules: Sequence[FaultRule],
        seed: int = 0,
        name: str = "custom",
        max_retries: int = 3,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = int(seed)
        self.name = name
        #: delivery attempts after the first (envelope retry budget)
        self.max_retries = int(max_retries)
        self.events: List[FaultEvent] = []
        self._rng = np.random.default_rng(self.seed)
        self._n_calls = 0
        self._matched: List[int] = [0] * len(self.rules)  # matching calls seen
        self._fired: List[int] = [0] * len(self.rules)  # times actually fired

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Rewind to the freshly-constructed state (same seed)."""
        self.events = []
        self._rng = np.random.default_rng(self.seed)
        self._n_calls = 0
        self._matched = [0] * len(self.rules)
        self._fired = [0] * len(self.rules)

    def begin_call(self, collective: str, phase: Optional[str] = None) -> FaultCall:
        """Draw this call's faults.  All plan randomness happens here, in
        rule order, so the schedule depends only on the seed and the
        sequence of ``(collective, phase)`` calls."""
        index = self._n_calls
        self._n_calls += 1
        fired: List[FaultRule] = []
        for i, rule in enumerate(self.rules):
            if not rule.matches(collective, phase):
                continue
            self._matched[i] += 1
            if self._matched[i] <= rule.skip_calls:
                continue
            if (
                rule.max_injections is not None
                and self._fired[i] >= rule.max_injections
            ):
                continue
            if rule.probability >= 1.0 or self._rng.random() < rule.probability:
                self._fired[i] += 1
                fired.append(rule)
        return FaultCall(self, index, collective, phase, tuple(fired))

    # ------------------------------------------------------------------
    @property
    def n_calls(self) -> int:
        return self._n_calls

    @property
    def cursor(self) -> int:
        """The plan's RNG cursor: how many collective calls have consumed
        randomness so far.  Checkpoints record it so a resumed run's fault
        schedule can be audited against the injection log."""
        return self._n_calls

    @property
    def n_injected(self) -> int:
        return len(self.events)

    def log(self) -> List[Dict[str, Any]]:
        """The injection log as plain dicts (stable field order)."""
        return [e.as_dict() for e in self.events]

    def to_json(self) -> str:
        """Canonical JSON of the log — byte-reproducible given a seed."""
        return json.dumps(self.log(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`: rebuild a plan whose event log is
        the serialized one, byte-for-byte.

        The returned plan carries no rules (it is a *replay log*, not a
        schedule — it cannot inject new faults), but its
        :attr:`events` / :meth:`log` / :meth:`to_json` round-trip exactly:
        ``FaultPlan.from_json(p.to_json()).to_json() == p.to_json()``.
        The call cursor is advanced past the last logged call so resumed
        bookkeeping (checkpoint cursors, summaries) stays consistent.
        """
        rows = json.loads(text)
        if not isinstance(rows, list):
            raise ValueError("fault log JSON must be a list of event records")
        plan = cls([], name="replay")
        for i, row in enumerate(rows):
            try:
                ev = FaultEvent(
                    index=int(row["index"]),
                    call=int(row["call"]),
                    collective=str(row["collective"]),
                    phase=row["phase"],
                    kind=str(row["kind"]),
                    attempt=int(row["attempt"]),
                    rank=row["rank"],
                    detail=str(row.get("detail", "")),
                )
            except (KeyError, TypeError) as exc:
                raise ValueError(f"malformed fault event at row {i}: {exc}") from None
            plan.events.append(ev)
        if plan.events:
            plan._n_calls = max(e.call for e in plan.events) + 1
        return plan

    def summary(self) -> Dict[str, int]:
        """Injection counts by fault kind."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlan({self.name!r}, seed={self.seed}, "
            f"{len(self.rules)} rules, {self.n_injected} injected)"
        )


# ----------------------------------------------------------------------
# Presets — the named fault scenarios the CLI / differential tests use.
# ----------------------------------------------------------------------
def _flaky(seed: int = 0, rate: float = 0.25) -> FaultPlan:
    """Transient data corruption: every kind of payload damage, each with
    probability *rate*/4, healed after one retry."""
    per = rate / 4.0
    rules = [
        FaultRule(kind=k, probability=per, attempts=1) for k in DATA_FAULT_KINDS
    ]
    return FaultPlan(rules, seed=seed, name="flaky")


def _stragglers(seed: int = 0, rate: float = 0.5, factor: float = 4.0) -> FaultPlan:
    """Random ranks run slow: matching collectives cost *factor*× their
    fault-free time.  Data is never damaged."""
    return FaultPlan(
        [FaultRule(kind="delay", probability=rate, delay_factor=factor)],
        seed=seed,
        name="stragglers",
    )


def _outage(seed: int = 0, rate: float = 0.15, attempts: int = 2) -> FaultPlan:
    """Transient transport failures: a matching collective's first
    *attempts* deliveries error outright, then recover."""
    return FaultPlan(
        [FaultRule(kind="fail", probability=rate, attempts=attempts)],
        seed=seed,
        name="outage",
        max_retries=max(attempts, 3),
    )


def _once(kind: str, after: int, **kw: Any) -> FaultRule:
    """One *kind* fault, at the *after*-th matching collective call."""
    return FaultRule(kind=kind, skip_calls=max(after - 1, 0), max_injections=1, **kw)


def _permanent(
    seed: int = 0, collective: Optional[str] = None, after: int = 3
) -> FaultPlan:
    """A hard failure: from the *after*-th matching call onward, every
    delivery attempt is corrupted — the run must raise
    :class:`~repro.faults.errors.CollectiveError`."""
    return FaultPlan(
        [
            FaultRule(
                kind="corrupt",
                collective=collective,
                permanent=True,
                skip_calls=max(after - 1, 0),
            )
        ],
        seed=seed,
        name="permanent",
    )


def _crash(
    seed: int = 0,
    collective: Optional[str] = None,
    phase: Optional[str] = None,
    after: int = 5,
) -> FaultPlan:
    """A rank dies mid-collective: the *after*-th matching call raises
    :class:`~repro.faults.errors.CollectiveError` immediately — no retry
    can resurrect a dead rank.  Exactly one crash fires per plan; a
    supervisor that restarts the run (``repro.recovery``) then proceeds
    on the surviving schedule."""
    return FaultPlan(
        [_once("crash", after, collective=collective, phase=phase)],
        seed=seed,
        name="crash",
    )


# the process presets fire at the 30th collective by default: mid-iteration
# 2 on the corpus graphs, past the first checkpoint, so recovery resumes
# rather than restarts
def _kill(seed: int = 0, after: int = 30, rank: Optional[int] = None) -> FaultPlan:
    """SIGKILL one worker at the *after*-th collective: the canonical
    rank loss (``rank_lost``; the supervisor respawns and resumes)."""
    return FaultPlan([_once("kill", after, rank=rank)], seed=seed, name="kill")


def _stall(
    seed: int = 0,
    after: int = 30,
    rank: Optional[int] = None,
    stall_seconds: float = 1.0,
) -> FaultPlan:
    """SIGSTOP one worker at the *after*-th collective and SIGCONT it
    *stall_seconds* later: a real straggler, so the run slows but
    completes with no error."""
    return FaultPlan(
        [_once("stop", after, rank=rank, stall_seconds=stall_seconds)],
        seed=seed,
        name="stall",
    )


def _exit(seed: int = 0, after: int = 30, rank: Optional[int] = None) -> FaultPlan:
    """SIGTERM one worker: the same ``rank_lost`` as ``kill``, but the
    worker gets to run its teardown."""
    return FaultPlan([_once("exit", after, rank=rank)], seed=seed, name="exit")


def _frame(seed: int = 0, after: int = 30, rank: Optional[int] = None) -> FaultPlan:
    """Write a corrupt frame header into the victim's ring to the
    conductor: the drainer sees the bad magic and the pool fails typed
    (``worker_died``), exercising the respawn path."""
    return FaultPlan([_once("frame", after, rank=rank)], seed=seed, name="frame")


def _shrink(seed: int = 0, after: int = 30, gap: int = 12) -> FaultPlan:
    """Two kills *gap* collectives apart: the repeated rank loss that
    escalates the supervisor past respawn into shrink-to-survivors."""
    return FaultPlan(
        [_once("kill", after), _once("kill", max(after, 1) + max(gap, 1))],
        seed=seed,
        name="shrink",
    )


#: name → factory, for ``FaultPlan`` construction by preset name
#: (CLI ``--faults``, the differential fault matrix and
#: :mod:`repro.runner`).
PRESETS = {
    "flaky": _flaky,
    "stragglers": _stragglers,
    "outage": _outage,
    "permanent": _permanent,
    "crash": _crash,
    "kill": _kill,
    "stall": _stall,
    "exit": _exit,
    "frame": _frame,
    "shrink": _shrink,
}
#: the presets of process faults (``repro run --faults``); the rest damage
#: payloads, delay or fail collectives, or crash a rank
PROC_PRESETS = ("exit", "frame", "kill", "shrink", "stall")


def preset(name: str, seed: int = 0, **kwargs: Any) -> FaultPlan:
    """Build a preset plan by name (see :data:`PRESETS`)."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return factory(seed=seed, **kwargs)
