"""Disabled-mode overhead measurement for the observability layer.

Tracing and the flight record are designed to be free when off: every
instrumented call site pays one module-global lookup plus a falsy check
(:data:`~repro.obs.tracer.NULL_TRACER` / :data:`~repro.obs.flight.NULL_FLIGHT`).
This module is the one implementation of the measurement that pins the
property — shared by ``benchmarks/check_tracing_overhead.py`` (the CI
gate at full scale) and the tier-1 test suite (smaller scale, same
protocol), so the two can't drift apart.

Protocol: warm the caches, then time *baseline* and *probe* in
interleaved rounds (drift hits both sides equally) and compare the
best-of minima.  The probe passes while it stays within
``tolerance × baseline + noise_floor_s``; the absolute floor keeps
~100 ms runs from failing on scheduler noise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

__all__ = ["OverheadResult", "measure_overhead"]

DEFAULT_ROUNDS = 5
DEFAULT_TOLERANCE = 0.05  # the <5% budget from the observability PRs
DEFAULT_NOISE_FLOOR_S = 0.050


@dataclass
class OverheadResult:
    """Outcome of one baseline-vs-probe comparison."""

    name: str
    rounds: int
    tolerance: float
    noise_floor_s: float
    baseline_seconds: float  # best-of over rounds
    probe_seconds: float
    baseline_times: List[float] = field(default_factory=list)
    probe_times: List[float] = field(default_factory=list)

    @property
    def overhead_fraction(self) -> float:
        return (
            self.probe_seconds / self.baseline_seconds - 1.0
            if self.baseline_seconds > 0
            else 0.0
        )

    @property
    def budget_seconds(self) -> float:
        return self.baseline_seconds * (1.0 + self.tolerance) + self.noise_floor_s

    @property
    def within_budget(self) -> bool:
        return self.probe_seconds <= self.budget_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.name,
            "rounds": self.rounds,
            "baseline_seconds": self.baseline_seconds,
            "probe_seconds": self.probe_seconds,
            "overhead_fraction": self.overhead_fraction,
            "tolerance": self.tolerance,
            "noise_floor_s": self.noise_floor_s,
            "within_budget": self.within_budget,
            "baseline_times": self.baseline_times,
            "probe_times": self.probe_times,
        }

    def summary(self) -> str:
        return (
            f"{self.name}: baseline {self.baseline_seconds * 1e3:.1f} ms, "
            f"probe {self.probe_seconds * 1e3:.1f} ms, "
            f"overhead {self.overhead_fraction * 100:+.2f}% "
            f"(budget {self.tolerance * 100:.0f}% "
            f"+ {self.noise_floor_s * 1e3:.0f} ms floor) — "
            + ("OK" if self.within_budget else "OVER BUDGET")
        )


def measure_overhead(
    baseline: Callable[[], Any],
    probe: Callable[[], Any],
    name: str = "overhead",
    rounds: int = DEFAULT_ROUNDS,
    tolerance: float = DEFAULT_TOLERANCE,
    noise_floor_s: float = DEFAULT_NOISE_FLOOR_S,
    warmup: bool = True,
) -> OverheadResult:
    """Time *probe* against *baseline* with interleaved rounds.

    Both callables should run the identical workload; the probe wraps it
    in the disabled-mode instrumentation under test (an activated
    ``NullTracer`` or ``NullFlightRecorder``).
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if warmup:
        baseline()
    base_times: List[float] = []
    probe_times: List[float] = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        baseline()
        base_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        probe()
        probe_times.append(time.perf_counter() - t0)
    return OverheadResult(
        name=name,
        rounds=rounds,
        tolerance=tolerance,
        noise_floor_s=noise_floor_s,
        baseline_seconds=min(base_times),
        probe_seconds=min(probe_times),
        baseline_times=base_times,
        probe_times=probe_times,
    )
