"""Checkpoint/restart supervision of LACC drivers.

:class:`Supervisor` wraps any of the four drivers of
:data:`repro.core.drivers.DRIVERS` (:func:`repro.core.lacc`,
:func:`~repro.core.lacc_dist.lacc_dist`,
:func:`~repro.core.lacc_spmd.lacc_spmd`,
:func:`~repro.core.lacc_2d.lacc_2d`) with a recovery state machine::

    run ──fault/deadline──▶ audit ──violations──▶ repair ──▶ resume
     ▲                        │                                │
     │                        └─recurring failure─▶ rollback ──┘
     └──────── budget exhausted ─▶ degrade (serial replay) ─▶ done

* every iteration boundary, the driver's ``on_iteration`` hook snapshots
  state; every ``checkpoint_interval``-th snapshot is sealed into a
  CRC-checksummed :class:`~repro.recovery.checkpoint.Checkpoint` and
  written to the store (checkpoint traffic is charged through the α–β
  cost model under the ``checkpoint`` phase);
* a permanent :class:`~repro.faults.CollectiveError` (including the
  unrecoverable ``crash`` fault kind) or a
  :class:`~repro.recovery.WatchdogTimeout` (iteration overran
  ``iteration_deadline`` simulated seconds) triggers recovery;
* recovery prefers **audit-repair** — run the
  :class:`~repro.recovery.StateAuditor` over the freshest in-memory
  snapshot and resume from it (cheap: Awerbuch–Shiloach is
  self-stabilizing, see the auditor's module docstring) — and escalates
  to **rollback** (newest CRC-valid durable checkpoint, walking older on
  repeats) when failures recur at the same iteration;
* a repeated permanent rank loss **shrinks** a driver with ranks to the
  largest count its table entry runs at and resumes there;
* when the bounded budget (``max_recoveries``) is spent, the run
  **degrades**: the repaired best-known state replays on the serial
  single-node driver, which bypasses the faulty simulated network
  entirely and is guaranteed to finish — labels stay exact, only the
  performance story weakens (``SupervisedResult.degraded`` flags it).

Every action is written once, as a row of :attr:`SupervisedResult.events`;
the flight ``recovery`` event is written from that row, and the action
lands as ``recovery``-category spans on the active tracer.  The
supervisor activates nothing itself: the caller's one obs scope
(:func:`repro.obs.activate`) covers the driver's attempts and the
recovery actions between them alike, so a Chrome trace of a supervised
run shows checkpoint writes, repairs and rollbacks on the simulated
timeline next to the algorithm's own phases (and the serial replay's
spans after a degrade).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Optional

import numpy as np

from repro.core.drivers import driver_of
from repro.core.lacc import LACCResult
from repro.core.snapshot import IterationSnapshot
from repro.faults.errors import CollectiveError
from repro.mpisim.costmodel import CostModel
from repro.obs.tracer import flight_recorder as _freg
from repro.obs.tracer import current as _obs

from .auditor import StateAuditor
from .checkpoint import Checkpoint, CheckpointStore, MemoryCheckpointStore
from .errors import RecoveryExhausted, WatchdogTimeout

__all__ = ["SupervisorConfig", "RecoveryEvent", "SupervisedResult", "Supervisor"]


@dataclass
class SupervisorConfig:
    """Tuning knobs of the recovery state machine."""

    #: seal every k-th iteration snapshot into the store (0 disables)
    checkpoint_interval: int = 1
    #: bounded recovery budget: recoveries beyond this degrade (or raise)
    max_recoveries: int = 3
    #: watchdog: max simulated seconds one iteration may take (None = off;
    #: wall-clock drivers report 0 simulated seconds, so it never fires
    #: for plain serial runs)
    iteration_deadline: Optional[float] = None
    #: on budget exhaustion, replay serially instead of raising
    allow_degraded: bool = True
    #: extra simulated seconds charged per recovery (job-restart cost)
    restart_penalty_seconds: float = 0.0
    #: never shrink below this many ranks when a repeated permanent rank
    #: loss re-partitions across the survivors (see ``Supervisor._shrink``)
    min_ranks: int = 1


#: the actions that resume (or replay) the run; ``fault`` and ``watchdog``
#: rows record what triggered them
RECOVERY_ACTIONS = ("audit_repair", "rollback", "shrink", "degrade")


@dataclass
class RecoveryEvent:
    """One row of the recovery-event record (the CI artifact)."""

    action: str  # "fault" | "watchdog" | one of RECOVERY_ACTIONS
    #: failing iteration; for a recovery action, the iteration it resumes
    #: from (None: from scratch)
    iteration: Optional[int]
    simulated_seconds: float
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "action": self.action,
            "iteration": self.iteration,
            "simulated_seconds": self.simulated_seconds,
            "detail": self.detail,
        }


def _record(events: List[RecoveryEvent], action: str, iteration: Optional[int],
            seconds: float, detail: str, **flight_only: Any) -> None:
    """Append one row to *events* and write the flight ``recovery`` event
    from that same row.  *flight_only* holds fields only the flight record
    carries (a shrink's rank counts, read by the ``shrink_recovery``
    detector; a degrade's ``from_iteration``, read by ``checkpoint_churn``)."""
    ev = RecoveryEvent(action, iteration, seconds, detail)
    events.append(ev)
    fr = _freg()
    if fr:
        fr.record("recovery", iteration=ev.iteration, action=ev.action,
                  detail=ev.detail, **flight_only)


def _resumed_at(snap: Optional[IterationSnapshot]) -> tuple:
    """``(iteration, simulated seconds)`` a recovery resumes from;
    ``(None, 0.0)`` from scratch."""
    return (None, 0.0) if snap is None else (snap.iteration, snap.simulated_seconds)


@dataclass
class SupervisedResult:
    """A driver result plus the supervision record around it.

    :attr:`events` is the run's one recovery record; the flight
    ``recovery`` events are written from its rows.  :attr:`resumed` and
    :attr:`shrunk_to` read fields, never the rows' ``detail`` prose.
    """

    result: LACCResult
    events: List[RecoveryEvent] = field(default_factory=list)
    degraded: bool = False
    checkpoints_written: int = 0
    attempts: int = 1  # driver invocations (1 = clean run)
    cost: Optional[CostModel] = None
    #: rank count the last shrink-to-survivors set (None: never shrank)
    shrunk_to: Optional[int] = None

    @property
    def parents(self) -> np.ndarray:
        return self.result.parents

    @property
    def labels(self) -> np.ndarray:
        return self.result.labels

    @property
    def n_components(self) -> int:
        return self.result.n_components

    @property
    def n_iterations(self) -> int:
        return self.result.n_iterations

    @property
    def n_recoveries(self) -> int:
        """Recovery actions taken (repairs + rollbacks + shrinks + degrades)."""
        return sum(e.action in RECOVERY_ACTIONS for e in self.events)

    @property
    def resumed(self) -> bool:
        """Every recovery action resumed from a saved iteration: none went
        back to iteration 0 (vacuously true for a clean run)."""
        return all(
            e.iteration is not None for e in self.events
            if e.action in RECOVERY_ACTIONS
        )


class Supervisor:
    """Runs a LACC driver under checkpoint/restart supervision.

    Parameters
    ----------
    store:
        Checkpoint backend; defaults to a fresh
        :class:`~repro.recovery.MemoryCheckpointStore`.
    config:
        :class:`SupervisorConfig`; defaults are sensible for tests.
    auditor:
        :class:`~repro.recovery.StateAuditor` used by audit-repair and to
        sanitise the degraded replay's input.
    """

    def __init__(
        self,
        store: Optional[CheckpointStore] = None,
        config: Optional[SupervisorConfig] = None,
        auditor: Optional[StateAuditor] = None,
    ):
        self.store = store if store is not None else MemoryCheckpointStore()
        self.config = config if config is not None else SupervisorConfig()
        self.auditor = auditor if auditor is not None else StateAuditor()

    # ------------------------------------------------------------------
    def run(self, driver: Callable, *args: Any, **kwargs: Any) -> SupervisedResult:
        """Invoke ``driver(*args, **kwargs)`` under supervision.

        The driver must expose the checkpoint-resume surface of
        :mod:`repro.core.snapshot` (``on_iteration`` / ``initial_parents``
        / ``start_iteration``) — all four in-tree drivers do.  A caller-
        supplied ``on_iteration`` is chained after the supervisor's own
        hook; a caller-supplied ``cost`` model is reused across restart
        attempts so the simulated clock runs continuously (for
        :func:`~repro.core.lacc_dist.lacc_dist` one is created
        automatically when absent).
        """
        cfg = self.config
        params = inspect.signature(driver).parameters
        for req in ("on_iteration", "initial_parents", "start_iteration"):
            if req not in params:
                raise TypeError(
                    f"driver {getattr(driver, '__name__', driver)!r} does not "
                    f"accept {req!r} — not supervisable"
                )
        kw = dict(kwargs)
        user_hook = kw.pop("on_iteration", None)
        master_cost: Optional[CostModel] = kw.get("cost")
        if master_cost is None and "cost" in params and "machine" in params:
            # lacc_dist: build one master model up front so recovery time
            # and all attempts share a single continuous simulated clock
            machine = kw.get("machine", args[1] if len(args) > 1 else None)
            if machine is not None:
                from repro.core.lacc_dist import default_cost

                master_cost = kw["cost"] = default_cost(
                    machine, int(kw.get("nodes", 1)),
                    bool(kw.get("trace_comm", False)), kw.get("faults"),
                )

        events: List[RecoveryEvent] = []
        latest: List[Optional[IterationSnapshot]] = [None]  # freshest in-memory
        ckpts_written = [0]
        last_sim = [0.0]

        def now() -> float:
            if master_cost is not None:
                return master_cost.total_seconds
            snap = latest[0]
            return 0.0 if snap is None else snap.simulated_seconds

        def hook(snap: IterationSnapshot) -> None:
            dt = snap.simulated_seconds - last_sim[0]
            last_sim[0] = snap.simulated_seconds
            latest[0] = snap
            if cfg.checkpoint_interval and snap.iteration % cfg.checkpoint_interval == 0:
                ck = Checkpoint.from_snapshot(snap)
                with _obs().span(
                    "checkpoint", "recovery", iteration=snap.iteration
                ) as sp:
                    self.store.save(ck)
                    if master_cost is not None:
                        # writing the state to stable storage moves words
                        master_cost.charge_comm(ck.words, 1, "checkpoint")
                    if sp:
                        sp.set("words", ck.words)
                ckpts_written[0] += 1
                fr = _freg()
                if fr:
                    fr.record("checkpoint", iteration=snap.iteration,
                              words=float(ck.words))
            if user_hook is not None:
                user_hook(snap)
            if cfg.iteration_deadline is not None and dt > cfg.iteration_deadline:
                raise WatchdogTimeout(snap.iteration, dt, cfg.iteration_deadline)

        resume: Optional[IterationSnapshot] = None
        attempts = recoveries = rank_losses = rollback_depth = 0
        last_failure_iter: Optional[int] = None
        shrunk_to: Optional[int] = None
        degraded = False

        while True:
            attempts += 1
            kw2 = dict(kw, on_iteration=hook)
            if resume is not None:
                kw2["initial_parents"] = resume.parents
                kw2["start_iteration"] = resume.iteration
                if resume.active is not None and "initial_active" in params:
                    kw2["initial_active"] = resume.active
            try:
                result = driver(*args, **kw2)
                break
            except (CollectiveError, WatchdogTimeout) as exc:
                recoveries += 1
                fail_iter = getattr(exc, "iteration", None)
                if fail_iter is None and latest[0] is not None:
                    fail_iter = latest[0].iteration + 1  # mid-flight iteration
                _record(
                    events,
                    "watchdog" if isinstance(exc, WatchdogTimeout) else "fault",
                    fail_iter, now(), str(exc),
                )
                rank_lost = (
                    isinstance(exc, CollectiveError) and "rank_lost" in exc.kinds
                )
                rank_losses += rank_lost
                if recoveries > cfg.max_recoveries:
                    if not cfg.allow_degraded:
                        raise RecoveryExhausted(attempts, cfg.max_recoveries, exc)
                    result = self._degrade(
                        args, kw, events, latest[0], resume, master_cost
                    )
                    attempts += 1
                    degraded = True
                    break
                repeated = (
                    last_failure_iter is not None
                    and fail_iter is not None
                    and fail_iter <= last_failure_iter
                )
                shrunk = False
                if rank_lost and (rank_losses >= 2 or repeated):
                    # a second permanent rank loss (or one that keeps
                    # recurring at the same iteration): respawning at
                    # full size is not converging — re-partition
                    # across the survivors and resume from the best
                    # known original-vertex-space state
                    shrunk, resume = self._shrink(
                        driver, kw, latest[0], events,
                        getattr(exc, "lost_ranks", ()),
                    )
                if shrunk:
                    rollback_depth = 0
                    shrunk_to = kw["ranks"]
                elif repeated:
                    # audit-repair did not get us past this point — the
                    # in-memory state is suspect, fall back to durable,
                    # CRC-verified checkpoints, one older per repeat
                    rollback_depth += 1
                    resume = self._rollback(rollback_depth, events)
                else:
                    rollback_depth = 0
                    resume = self._audit_repair(latest[0], events)
                last_failure_iter = fail_iter
                if master_cost is not None:
                    with _obs().span(
                        "recovery", "recovery", action=events[-1].action
                    ):
                        master_cost.charge_seconds(
                            cfg.restart_penalty_seconds, "recovery", "recovery"
                        )
                        if resume is not None:
                            # reading the resume state back moves words
                            words = Checkpoint.from_snapshot(resume).words
                            master_cost.charge_comm(words, 1, "recovery")
                last_sim[0] = (
                    now() if master_cost is not None else _resumed_at(resume)[1]
                )
        return SupervisedResult(
            result=result,
            events=events,
            degraded=degraded,
            checkpoints_written=ckpts_written[0],
            attempts=attempts,
            cost=master_cost if master_cost is not None else result.cost,
            shrunk_to=shrunk_to,
        )

    # ------------------------------------------------------------------
    def _audit_repair(
        self,
        latest: Optional[IterationSnapshot],
        events: List[RecoveryEvent],
    ) -> Optional[IterationSnapshot]:
        """Repair a copy of the freshest state (*latest*, else the newest
        durable checkpoint) and resume from it; else start fresh."""
        snap, report = self._repaired_copy(latest)
        _record(
            events, "audit_repair", *_resumed_at(snap),
            "no state yet — fresh start" if snap is None else report.summary(),
        )
        return snap

    def _repaired_copy(self, source: Optional[IterationSnapshot]):
        """``(snapshot, audit report)`` of a repaired copy of *source*, else
        of the newest durable checkpoint; ``(None, None)`` when there is
        neither.  The snapshot the caller's hook saw is never touched."""
        if source is None:
            ck = self.store.latest_valid()
            if ck is None:
                return None, None
            source = ck.to_snapshot()
        snap = replace(
            source,
            parents=np.array(source.parents, dtype=np.int64, copy=True),
            star=None if source.star is None else source.star.copy(),
            active=None if source.active is None else source.active.copy(),
        )
        return snap, self.auditor.repair(snap)

    def _shrink(
        self,
        driver: Callable,
        kw: dict,
        latest: Optional[IterationSnapshot],
        events: List[RecoveryEvent],
        lost_ranks,
    ):
        """Shrink-to-survivors: drop the run's rank count to the one the
        driver's :data:`~repro.core.drivers.DRIVERS` entry picks
        (:meth:`~repro.core.drivers.Driver.shrink`) and resume from the
        best known state.

        Snapshots live in the **original vertex space** (the drivers'
        ``to_permuted_parents`` surface maps back before ``on_iteration``
        fires), so re-partitioning across the survivors is nothing more
        than the drivers' normal ``initial_parents`` scatter at the new
        size — and Awerbuch–Shiloach is self-stabilizing from any
        in-range parent forest, so the final labels stay byte-identical
        to the fault-free run.

        Returns ``(shrunk, resume_snapshot)``; ``(False, None)`` when the
        driver is not in the table or has no smaller count to run at.
        """
        entry = driver_of(driver)
        if entry is None or "ranks" not in kw:
            return False, None
        lost = sorted(int(r) for r in lost_ranks)
        old = int(kw["ranks"])
        new = entry.shrink(old, len(lost), self.config.min_ranks)
        if new is None:
            return False, None
        kw["ranks"] = new
        snap, _ = self._repaired_copy(latest)
        from_what = "scratch" if snap is None else f"iteration {snap.iteration}"
        _record(
            events, "shrink", *_resumed_at(snap),
            f"re-partitioned {old}→{new} ranks"
            + (f" after losing rank(s) {lost}" if lost else "")
            + f"; resume from {from_what}",
            old_ranks=old, new_ranks=new, lost_ranks=lost,
        )
        return True, snap

    def _rollback(
        self, depth: int, events: List[RecoveryEvent]
    ) -> Optional[IterationSnapshot]:
        """Resume from the *depth*-th newest CRC-valid checkpoint (corrupt
        ones skipped); an exhausted store restarts from scratch."""
        valid: List[Checkpoint] = []
        before: Optional[int] = None
        for _ in range(depth):
            ck = self.store.latest_valid(before=before)
            if ck is None:
                break
            valid.append(ck)
            before = ck.iteration
        if not valid:
            _record(events, "rollback", None, 0.0, "no valid checkpoint — restart")
            return None
        snap = valid[-1].to_snapshot()
        # a CRC-valid checkpoint has exact bytes, but run the semantic
        # audit anyway — it is cheap and recomputes the advisory flags
        self.auditor.repair(snap)
        _record(
            events, "rollback", *_resumed_at(snap),
            f"checkpoint iteration {snap.iteration} (depth {len(valid)})",
        )
        return snap

    def _degrade(
        self,
        args: tuple,
        kw: dict,
        events: List[RecoveryEvent],
        latest: Optional[IterationSnapshot],
        resume: Optional[IterationSnapshot],
        master_cost: Optional[CostModel],
    ) -> LACCResult:
        """Budget exhausted: replay serially from the best known state.

        The serial driver touches no simulated network, so it cannot hit
        the faults that burned the budget — completion is guaranteed and
        the labels stay exact; only the distributed performance story is
        lost, which :attr:`SupervisedResult.degraded` records.
        """
        from repro.core.lacc import lacc

        target = args[0] if args else kw.get("A", kw.get("g"))
        A = target.to_matrix() if hasattr(target, "to_matrix") else target
        # best known state: freshest of the in-memory snapshot, the current
        # resume state, and the newest CRC-valid durable checkpoint —
        # sanitised as a copy before handing it to lacc
        best = latest if latest is not None else resume
        ck = self.store.latest_valid()
        if ck is not None and (best is None or ck.iteration > best.iteration):
            best = ck.to_snapshot()
        best, _ = self._repaired_copy(best)
        kw_serial = {} if best is None else dict(
            initial_parents=best.parents, initial_active=best.active,
            start_iteration=best.iteration,
        )
        start = None if best is None else best.iteration
        # written before the replay: the flight recorder stamps a row with
        # the ambient iteration, which the replay would move on, so the
        # start travels as its own field (None: from scratch)
        _record(
            events, "degrade", start,
            0.0 if master_cost is None else master_cost.total_seconds,
            "serial replay from scratch" if best is None
            else f"serial replay from iteration {start}",
            from_iteration=start,
        )
        with _obs().span("degrade", "recovery", from_iteration=start or 0):
            return lacc(A, **kw_serial)
