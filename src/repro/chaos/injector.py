"""The chaos injector: real OS-level faults on a seeded schedule.

A :class:`ChaosInjector` wraps a chaos :class:`~repro.faults.FaultPlan`
(process-level kinds only) and is activated process-wide with
:func:`activate_chaos` — the same scoping idiom as the tracer, metrics
registry and flight recorder.  Both communicator backends consult it
once per collective call:

* :class:`~repro.parallel.ProcComm` calls :meth:`fire_proc` in ``_run``,
  *before* the physical exchange: scheduled faults are delivered to the
  real worker processes — SIGKILL, SIGSTOP (+ a timed SIGCONT), SIGTERM,
  or a corrupt frame header written straight into a shared-memory ring.
* :class:`~repro.mpisim.SimComm` (via the shared envelope) calls
  :meth:`fire_sim`, which *models* the classified error the real fault
  produces — ``kill``/``exit`` become a ``rank_lost``
  :class:`~repro.faults.CollectiveError`, ``frame`` becomes
  ``worker_died``, and ``stop`` is a pure wall-clock phenomenon with no
  simulated counterpart (the collective merely completes late).

Determinism: the plan's call cursor advances once per collective on
either backend, victims derive from ``(seed, call_index)`` (or an
explicit ``rule.rank``), and recorded details never mention PIDs — so
:meth:`~repro.faults.FaultPlan.to_json` of a chaos run is byte-identical
across replays of one seed.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from typing import List, Optional

import numpy as np

from repro.faults.plan import FaultPlan
from repro.mpisim.envelope import fail, note_fault

__all__ = ["ChaosInjector", "activate_chaos", "active_injector", "chaos_victim"]

#: how long fire_proc waits for a SIGKILLed/SIGTERMed victim to actually
#: disappear (the kernel reaps asynchronously; classification must not
#: race ahead of the death it caused)
_REAP_WAIT_S = 2.0
_REAP_POLL_S = 0.005

_active: Optional["ChaosInjector"] = None


def active_injector() -> Optional["ChaosInjector"]:
    """The process-wide active injector, or ``None`` (chaos off)."""
    return _active


@contextmanager
def activate_chaos(injector: "ChaosInjector"):
    """Scope *injector* as the process-wide chaos source::

        inj = ChaosInjector(chaos_preset("kill", seed=3, after=12))
        with activate_chaos(inj):
            run_supervised(...)   # a worker will really die

    Nested activations restore the previous injector on exit; pending
    SIGCONT timers are flushed when the scope closes so no worker is
    left stopped.
    """
    global _active
    prev = _active
    _active = injector
    try:
        yield injector
    finally:
        _active = prev
        injector.close()


def chaos_victim(plan: FaultPlan, call_index: int, size: int) -> int:
    """Deterministic victim rank: the same golden-ratio hash family as
    :func:`~repro.mpisim.envelope.straggler_rank`, salted with the call
    index so successive faults of one plan spread across ranks."""
    return (0x9E3779B9 * (plan.seed + 1) + call_index) % max(size, 1)


class ChaosInjector:
    """Consumes a chaos plan, delivering real (or modeled) process faults.

    Parameters
    ----------
    plan:
        A :class:`~repro.faults.FaultPlan` whose rules use the
        process-level kinds (see :func:`~repro.chaos.plan.chaos_preset`).
    deadline_s:
        Optional per-collective deadline budget the proc backend applies
        while this injector is active (stalled workers then surface as
        ``deadline_exceeded`` within the budget).
    """

    def __init__(self, plan: FaultPlan, deadline_s: Optional[float] = None):
        self.plan = plan
        self.deadline_s = None if deadline_s is None else float(deadline_s)
        self._timers: List[threading.Timer] = []
        self._stopped_pids: List[int] = []
        self._lock = threading.Lock()

    def _victim(self, rule, call, size: int) -> int:
        """The rule's explicit rank, else the seeded :func:`chaos_victim`."""
        if rule.rank is not None:
            return rule.rank % size
        return chaos_victim(self.plan, call.index, size)

    # ------------------------------------------------------------------
    # real faults (proc backend)
    # ------------------------------------------------------------------
    def fire_proc(self, collective: str, pool) -> None:
        """Deliver this call's scheduled faults to *pool*'s workers."""
        call = self.plan.begin_call(collective)
        for rule in call.proc():
            victim = self._victim(rule, call, pool.size)
            if rule.kind == "kill":
                self._signal_and_reap(pool, victim, signal.SIGKILL)
                detail = f"SIGKILL rank {victim}"
            elif rule.kind == "exit":
                self._signal_and_reap(pool, victim, signal.SIGTERM)
                detail = f"SIGTERM rank {victim}"
            elif rule.kind == "stop":
                self._stop_and_schedule_cont(pool, victim, rule.stall_seconds)
                detail = f"SIGSTOP rank {victim} for {rule.stall_seconds:g}s"
            else:  # frame
                self._corrupt_frame(pool, victim)
                detail = f"corrupt frame header from rank {victim}"
            note_fault(call, rule, 0, victim, detail, chaos=True)

    def _signal_and_reap(self, pool, victim: int, sig: int) -> None:
        proc = pool.procs[victim]
        try:
            if proc.pid is not None:
                os.kill(proc.pid, sig)
        except (ProcessLookupError, OSError):
            return  # already gone
        deadline = time.monotonic() + _REAP_WAIT_S
        while proc.is_alive() and time.monotonic() < deadline:
            time.sleep(_REAP_POLL_S)

    def _stop_and_schedule_cont(self, pool, victim: int, stall_seconds: float) -> None:
        proc = pool.procs[victim]
        pid = proc.pid
        if pid is None:  # pragma: no cover - never forked
            return
        try:
            os.kill(pid, signal.SIGSTOP)
        except (ProcessLookupError, OSError):
            return
        with self._lock:
            self._stopped_pids.append(pid)

        def _resume(p=pid):
            try:
                os.kill(p, signal.SIGCONT)
            except (ProcessLookupError, OSError):
                pass
            with self._lock:
                if p in self._stopped_pids:
                    self._stopped_pids.remove(p)

        t = threading.Timer(stall_seconds, _resume)
        t.daemon = True
        t.start()
        with self._lock:
            self._timers.append(t)

    def _corrupt_frame(self, pool, victim: int) -> None:
        """Append a garbage frame header to the (victim → conductor)
        ring: the conductor's drainer reads it, sees the bad magic, and
        the transport fails typed — the real shm-corruption scenario."""
        from repro.parallel.shm import HEADER_BYTES, TransportError

        head = np.zeros(HEADER_BYTES // 8, dtype=np.int64)
        head[0] = 0x0DDBA11  # anything but the frame magic
        garbage = head.tobytes()
        ch = pool.transport.channel(victim, pool.size)
        try:
            ch.write_bytes(garbage, deadline=time.monotonic() + 1.0)
            pool.transport.doorbell(pool.size).release()
        except TransportError:  # pragma: no cover - ring full/closed
            pass

    # ------------------------------------------------------------------
    # modeled faults (sim backend)
    # ------------------------------------------------------------------
    def fire_sim(self, collective: str, size: int) -> None:
        """Model this call's scheduled faults as the typed errors the
        real injection produces on the proc backend."""
        call = self.plan.begin_call(collective)
        lost: List[int] = []
        frame_hit = False
        for rule in call.proc():
            victim = self._victim(rule, call, size)
            note_fault(call, rule, 0, victim, f"sim-modeled {rule.kind}",
                       chaos=True)
            if rule.kind in ("kill", "exit"):
                lost.append(victim)
            elif rule.kind == "frame":
                frame_hit = True
            # "stop" has no simulated counterpart: a stalled-then-resumed
            # worker only costs wall-clock, which the simulator does not
            # model — the collective simply completes
        if lost:
            fail(collective, 1, ["rank_lost"], size=size, lost=lost)
        if frame_hit:
            fail(collective, 1, ["worker_died"], lost=[])

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Cancel pending SIGCONT timers and resume anything still
        stopped — chaos must never leak a frozen worker past its scope."""
        with self._lock:
            timers, self._timers = self._timers, []
            stopped, self._stopped_pids = list(self._stopped_pids), []
        for t in timers:
            t.cancel()
        for pid in stopped:
            try:
                os.kill(pid, signal.SIGCONT)
            except (ProcessLookupError, OSError):
                pass
