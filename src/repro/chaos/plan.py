"""Seeded schedules of *process-level* faults (the chaos presets).

The chaos harness reuses the :class:`~repro.faults.FaultPlan` machinery —
rule matching, the call cursor, the byte-reproducible injection log — but
with the process-level kinds (:data:`~repro.faults.PROC_FAULT_KINDS`):
``kill`` / ``stop`` / ``exit`` / ``frame``.  A chaos plan is therefore a
plain FaultPlan; what differs is *who consumes it*: the
:class:`~repro.chaos.injector.ChaosInjector` delivers real signals (proc
backend) or models the classified error (sim backend) instead of
mutating buffers.

Presets
-------
``kill``    SIGKILL one worker at the *after*-th collective (the
            canonical rank-loss scenario: classification ``rank_lost``,
            supervisor shrinks to survivors).
``stall``   SIGSTOP one worker at the *after*-th collective and SIGCONT
            it ``stall_seconds`` later — a real straggler; the run slows
            but completes with no error.
``exit``    SIGTERM one worker (abnormal exit code; same ``rank_lost``
            surface as ``kill`` but the worker gets to run its teardown).
``frame``   Write a corrupt frame header into the victim's ring to the
            conductor — the drainer detects the bad magic and the pool
            fails typed (``worker_died``), exercising the respawn path.
``shrink``  Two kills at distinct collectives: the repeated-loss schedule
            that pushes the supervisor past respawn into
            shrink-to-survivors.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.faults.plan import FaultPlan, FaultRule

__all__ = ["CHAOS_PRESETS", "chaos_preset"]


def _kill(seed: int = 0, after: int = 10, rank: Optional[int] = None) -> FaultPlan:
    return FaultPlan(
        [
            FaultRule(
                kind="kill",
                skip_calls=max(after - 1, 0),
                max_injections=1,
                rank=rank,
            )
        ],
        seed=seed,
        name="chaos-kill",
    )


def _stall(
    seed: int = 0,
    after: int = 10,
    rank: Optional[int] = None,
    stall_seconds: float = 1.0,
) -> FaultPlan:
    return FaultPlan(
        [
            FaultRule(
                kind="stop",
                skip_calls=max(after - 1, 0),
                max_injections=1,
                rank=rank,
                stall_seconds=stall_seconds,
            )
        ],
        seed=seed,
        name="chaos-stall",
    )


def _exit(seed: int = 0, after: int = 10, rank: Optional[int] = None) -> FaultPlan:
    return FaultPlan(
        [
            FaultRule(
                kind="exit",
                skip_calls=max(after - 1, 0),
                max_injections=1,
                rank=rank,
            )
        ],
        seed=seed,
        name="chaos-exit",
    )


def _frame(seed: int = 0, after: int = 10, rank: Optional[int] = None) -> FaultPlan:
    return FaultPlan(
        [
            FaultRule(
                kind="frame",
                skip_calls=max(after - 1, 0),
                max_injections=1,
                rank=rank,
            )
        ],
        seed=seed,
        name="chaos-frame",
    )


def _shrink(seed: int = 0, after: int = 10, gap: int = 12) -> FaultPlan:
    """Two rank losses *gap* collectives apart — the repeated failure at
    the same iteration neighbourhood that escalates the supervisor past
    plain respawn into shrink-to-survivors."""
    return FaultPlan(
        [
            FaultRule(kind="kill", skip_calls=max(after - 1, 0), max_injections=1),
            FaultRule(
                kind="kill",
                skip_calls=max(after - 1, 0) + max(gap, 1),
                max_injections=1,
            ),
        ],
        seed=seed,
        name="chaos-shrink",
    )


CHAOS_PRESETS = {
    "kill": _kill,
    "stall": _stall,
    "exit": _exit,
    "frame": _frame,
    "shrink": _shrink,
}


def chaos_preset(name: str, seed: int = 0, **kwargs: Any) -> FaultPlan:
    """Build a chaos plan by preset name (see :data:`CHAOS_PRESETS`)."""
    try:
        factory = CHAOS_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos preset {name!r}; choose from {sorted(CHAOS_PRESETS)}"
        ) from None
    return factory(seed=seed, **kwargs)
