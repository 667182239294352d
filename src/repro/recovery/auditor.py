"""Self-healing validation of LACC parent-forest state.

Awerbuch–Shiloach is *self-stabilizing*: from **any** parent vector that
is (a) in range and (b) acyclic apart from root self-loops, the iteration
converges to the true components — hooks re-propose every merge from the
(immutable) edge list, and shortcutting flattens whatever trees exist.
That property is what makes repair cheaper than rollback: a corrupted
state does not need to be byte-exact to be *safe*, it only needs the two
hard invariants restored.

:class:`StateAuditor` checks and repairs exactly those invariants:

* **in-range** — every ``parents[v]`` names a real vertex.  Violations
  are clamped to self-loops (``parents[v] = v``); the detached vertex
  re-hooks through its real edges in later iterations.
* **acyclic** — following parents from any vertex must reach a root
  (``parents[r] == r``).  A corrupted state can contain cycles of length
  ≥ 2, which pointer jumping never breaks (a 3-cycle maps to a 3-cycle).
  Detection is by pointer-doubling reachability: propagate a ``good``
  flag from the self-rooted vertices down through ``⌈log2 n⌉ + 1`` rounds
  of ``good |= good[p]; p = p[p]``; vertices never reached sit on (or
  hang under) a cycle and are clamped to self-loops.

Star flags and the active bitmap are *derived* state: the auditor
recomputes stars with :func:`repro.core.starcheck.starcheck` and, when
any parent was repaired, reactivates every vertex — convergence tracking
(Lemma 1) re-retires finished components within one iteration, so
over-activation costs a little work, never correctness.

What the auditor *cannot* see: an in-range, acyclic parent that points
into the wrong component is indistinguishable from legitimate progress.
That class of corruption is covered by the CRC32 seal on checkpoints
(:mod:`repro.recovery.checkpoint`), not by the semantic audit — the two
mechanisms are complementary, which is why the supervisor runs the audit
first and falls back to a CRC-verified rollback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.snapshot import IterationSnapshot
from repro.core.starcheck import starcheck
from repro.obs.tracer import current as _obs

__all__ = ["AuditReport", "StateAuditor"]


@dataclass
class AuditReport:
    """What an audit found (and, for :meth:`StateAuditor.repair`, fixed)."""

    n: int
    out_of_range: int = 0  # parents clamped for naming non-vertices
    cycles_broken: int = 0  # vertices clamped for sitting on/under a cycle
    stars_recomputed: bool = False
    reactivated: int = 0  # vertices returned to the active set

    @property
    def clean(self) -> bool:
        """True when both hard invariants already held."""
        return self.out_of_range == 0 and self.cycles_broken == 0

    def summary(self) -> str:
        if self.clean:
            return f"audit clean (n={self.n})"
        return (
            f"audit repaired {self.out_of_range} out-of-range parent(s), "
            f"{self.cycles_broken} cycle vertex/vertices (n={self.n})"
        )


class StateAuditor:
    """Validates and repairs parent-forest snapshots in place."""

    def audit(self, parents: np.ndarray) -> AuditReport:
        """Non-mutating check of the two hard invariants."""
        p = np.asarray(parents, dtype=np.int64)
        n = int(p.size)
        report = AuditReport(n=n)
        if n == 0:
            return report
        bad = (p < 0) | (p >= n)
        report.out_of_range = int(np.count_nonzero(bad))
        # measure cycles on a copy with the range violations pre-clamped,
        # so one root cause is not double-counted
        q = p.copy()
        ids = np.arange(n, dtype=np.int64)
        q[bad] = ids[bad]
        report.cycles_broken = int(np.count_nonzero(~self._reaches_root(q)))
        return report

    def repair(self, snap: IterationSnapshot) -> AuditReport:
        """Audit *snap* and repair it **in place**; returns the report.

        ``parents`` gets both invariants restored; ``star`` is recomputed
        from the repaired forest; ``active`` (when tracked) has every
        vertex reactivated if any parent changed.
        """
        p = np.asarray(snap.parents, dtype=np.int64)
        n = int(p.size)
        report = AuditReport(n=n)
        with _obs().span("audit_repair", "recovery", n=n) as sp:
            if n:
                ids = np.arange(n, dtype=np.int64)
                bad = (p < 0) | (p >= n)
                report.out_of_range = int(np.count_nonzero(bad))
                p[bad] = ids[bad]
                on_cycle = ~self._reaches_root(p)
                report.cycles_broken = int(np.count_nonzero(on_cycle))
                p[on_cycle] = ids[on_cycle]
                snap.parents = p

                snap.star = self.recompute_star(p)
                report.stars_recomputed = True

                if snap.active is not None and not report.clean:
                    report.reactivated = int(np.count_nonzero(~snap.active))
                    snap.active = np.ones(n, dtype=bool)
            if sp:
                sp.set("out_of_range", report.out_of_range)
                sp.set("cycles_broken", report.cycles_broken)
                sp.set("reactivated", report.reactivated)
                sp.set("clean", report.clean)
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def recompute_star(parents: np.ndarray) -> np.ndarray:
        """Fresh star flags for an in-range forest (Algorithm 6)."""
        return starcheck(np.asarray(parents, dtype=np.int64))

    @staticmethod
    def _reaches_root(parents: np.ndarray) -> np.ndarray:
        """Boolean bitmap: vertex can reach a self-rooted vertex.

        Pointer-doubling good-propagation: roots start good; each round
        every vertex inherits its (current) parent's goodness and then
        squares the parent pointer.  After ``⌈log2 n⌉ + 1`` rounds any
        vertex on a root-terminated chain is reached; survivors are on or
        under a parent cycle.  Requires in-range parents.
        """
        n = int(parents.size)
        p = np.asarray(parents, dtype=np.int64).copy()
        good = p == np.arange(n, dtype=np.int64)
        rounds = int(np.ceil(np.log2(max(n, 2)))) + 1
        for _ in range(rounds):
            if good.all():
                break
            good |= good[p]
            p = p[p]
        return good
