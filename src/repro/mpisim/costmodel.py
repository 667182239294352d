"""α–β cost accounting.

A :class:`CostModel` accumulates the three quantities of §V-A — scalar
operations *F*, words moved *W*, messages *S* — per named phase, and
converts them to seconds with the owning :class:`MachineModel`'s constants.
Every simulated collective and compute region charges into the model; the
benchmark harness then reads per-phase and total times to regenerate
Figures 4, 5, 6 and 8.

The simulator is *bulk-synchronous*: within a superstep the critical path
is the maximum over ranks, which is what the ``*_max`` arguments carry.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.tracer import current as _obs

from .machine import MachineModel

__all__ = ["PhaseCost", "CostModel", "TraceEvent"]


@dataclass(frozen=True)
class TraceEvent:
    """One charged operation in a traced run (a timeline row).

    ``t_start`` is the simulated clock when the operation began; events
    are appended in program order, so the list is already a timeline.
    """

    t_start: float
    seconds: float
    phase: str
    kind: str  # "compute", or the collective's name
    words: float
    messages: float


@dataclass
class PhaseCost:
    """Accumulated cost of one named phase."""

    flops: float = 0.0  # memory-bound scalar ops on the critical path
    words: float = 0.0  # words moved on the critical path
    messages: float = 0.0  # messages on the critical path
    seconds: float = 0.0


class CostModel:
    """Accumulates simulated time for one algorithm run.

    Parameters
    ----------
    machine:
        Hardware constants.
    ranks:
        Total MPI ranks in the run.
    nodes:
        Node count (determines per-rank shares of node bandwidth).
    """

    def __init__(
        self,
        machine: MachineModel,
        ranks: int,
        nodes: int,
        trace: bool = False,
        faults=None,
    ):
        if ranks < 1 or nodes < 1:
            raise ValueError("ranks and nodes must be >= 1")
        self.machine = machine
        self.ranks = ranks
        self.nodes = nodes
        #: optional :class:`repro.faults.FaultPlan` consulted by the
        #: analytic collectives (stragglers, retries, failures)
        self.faults = faults
        self.ranks_per_node = max(ranks // nodes, 1)
        self.phases: Dict[str, PhaseCost] = {}
        self._current: Optional[str] = None
        self.trace = trace
        self.events: List[TraceEvent] = []
        self._current_kind: Optional[str] = None
        # cached per-rank rates; on a single node all "network" traffic is
        # shared-memory MPI, so words move at STREAM bandwidth and latency
        # is a fraction of the NIC's
        self._t_mem = machine.mem_time_per_op(self.ranks_per_node)
        if nodes == 1:
            self._beta = machine.word_bytes / (
                machine.stream_bw_node / max(self.ranks_per_node, 1)
            )
            self._alpha = machine.alpha / 3
        else:
            self._beta = machine.beta(self.ranks_per_node)
            self._alpha = machine.alpha

    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Attribute all charges inside the block to *name* (reentrant
        charges to an explicit phase name still work)."""
        prev = self._current
        self._current = name
        try:
            yield self
        finally:
            self._current = prev

    def _phase(self, name: Optional[str]) -> PhaseCost:
        key = name or self._current or "unattributed"
        if key not in self.phases:
            self.phases[key] = PhaseCost()
        return self.phases[key]

    # ------------------------------------------------------------------
    @contextmanager
    def kind(self, name: str):
        """Tag charges inside the block with a collective kind (tracing)."""
        prev = self._current_kind
        self._current_kind = name
        try:
            yield self
        finally:
            self._current_kind = prev

    def _record(self, kind: str, dt: float, phase: Optional[str], words: float, msgs: float):
        if self.trace:
            self.events.append(
                TraceEvent(
                    t_start=self.total_seconds - dt,
                    seconds=dt,
                    phase=phase or self._current or "unattributed",
                    kind=self._current_kind or kind,
                    words=words,
                    messages=msgs,
                )
            )

    def charge_compute(self, ops_max: float, phase: Optional[str] = None) -> float:
        """Charge *ops_max* memory-bound scalar ops on the critical-path
        rank.  Returns the seconds charged."""
        if ops_max < 0:
            raise ValueError("ops_max must be non-negative")
        dt = ops_max * self._t_mem
        p = self._phase(phase)
        p.flops += ops_max
        p.seconds += dt
        self._record("compute", dt, phase, 0.0, 0.0)
        sp = _obs().current
        if sp:
            sp.add("model_seconds", dt)
            sp.add("model_flops", ops_max)
        return dt

    def charge_comm(
        self,
        words_max: float,
        messages_max: float,
        phase: Optional[str] = None,
    ) -> float:
        """Charge a communication step: *words_max* words and
        *messages_max* messages on the critical-path rank."""
        if words_max < 0 or messages_max < 0:
            raise ValueError("communication charges must be non-negative")
        dt = self._beta * words_max + self._alpha * messages_max
        p = self._phase(phase)
        p.words += words_max
        p.messages += messages_max
        p.seconds += dt
        self._record("comm", dt, phase, words_max, messages_max)
        sp = _obs().current
        if sp:
            sp.add("model_seconds", dt)
            sp.add("words", words_max)
            sp.add("messages", messages_max)
        return dt

    def comm_seconds(self, words: float, messages: float) -> float:
        """Price a communication step *without* charging it — what
        ``charge_comm`` would add.  The fault envelope uses this to size
        straggler delays proportionally to the collective they slow."""
        return self._beta * words + self._alpha * messages

    def charge_seconds(
        self, seconds: float, phase: Optional[str] = None, kind: str = "delay"
    ) -> float:
        """Charge raw simulated seconds (no words/messages/ops attached).

        This is how fault-injected straggler delays and retry backoff
        enter the model: pure critical-path time, labelled with *kind*
        (``"fault_delay"``, ``"fault_backoff"``) in traced runs.
        """
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        p = self._phase(phase)
        p.seconds += seconds
        self._record(kind, seconds, phase, 0.0, 0.0)
        sp = _obs().current
        if sp:
            sp.add("model_seconds", seconds)
        return seconds

    # ------------------------------------------------------------------
    @property
    def total_seconds(self) -> float:
        return sum(p.seconds for p in self.phases.values())

    @property
    def total_words(self) -> float:
        return sum(p.words for p in self.phases.values())

    @property
    def total_messages(self) -> float:
        return sum(p.messages for p in self.phases.values())

    def phase_seconds(self) -> Dict[str, float]:
        return {k: v.seconds for k, v in self.phases.items()}

    def totals(self) -> Tuple[float, float, float]:
        """(seconds, words, messages) so far — cheap snapshot for
        per-iteration deltas (Figure 8's communication columns)."""
        return self.total_seconds, self.total_words, self.total_messages

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CostModel({self.machine.name}, ranks={self.ranks}, "
            f"nodes={self.nodes}, T={self.total_seconds:.4g}s)"
        )
