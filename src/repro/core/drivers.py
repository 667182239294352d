"""The LACC drivers by name.

:data:`DRIVERS` is the only code that knows, per driver, where its
function lives (imported at first use), how to call it from a graph and
the CLI's ``ranks``, ``machine`` and ``nodes``, and which rank counts it
runs at.  The CLI, the chaos harness and the supervisor's shrink read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict, Optional, Tuple

__all__ = ["Driver", "DRIVERS", "driver_of"]


def _matrix(g, ranks, machine, nodes, faults):
    return (g.to_matrix(),), {}  # no simulated network to fault


def _priced(g, ranks, machine, nodes, faults):
    from repro.mpisim.machine import load_machine

    return (g.to_matrix(), load_machine(machine)), {"nodes": nodes, "faults": faults}


def _ranked(g, ranks, machine, nodes, faults):
    return (g,), {"ranks": ranks, "faults": faults}


@dataclass(frozen=True)
class Driver:
    """One LACC driver: its ``module:function``, its call form, and the
    rank counts it runs at (``None``: it takes no ``ranks``)."""

    target: str
    #: ``(g, ranks, machine, nodes, faults) -> (args, kwargs)``
    call_form: Callable[..., Tuple[tuple, dict]]
    runs_at: Optional[Callable[[int], bool]] = None

    @property
    def fn(self) -> Callable:
        module, name = self.target.split(":")
        return getattr(import_module(module), name)

    def call(self, g, ranks: int = 4, machine: str = "edison", nodes: int = 4,
             faults=None) -> Tuple[tuple, dict]:
        """``(args, kwargs)`` that run this driver on the graph *g*."""
        return self.call_form(g, ranks, machine, nodes, faults)

    def shrink(self, old: int, lost: int, min_ranks: int = 1) -> Optional[int]:
        """The rank count to resume at after losing *lost* of *old* ranks:
        the largest count this driver runs at, no larger than
        ``max(min_ranks, old - max(1, lost))`` and no smaller than
        *min_ranks*.  ``None`` when there is none below *old*."""
        if self.runs_at is None:
            return None
        cap = max(min_ranks, old - max(1, lost))
        new = next((p for p in range(cap, max(min_ranks, 1) - 1, -1)
                    if self.runs_at(p)), None)
        return new if new is not None and new < old else None


DRIVERS: Dict[str, Driver] = {
    "serial": Driver("repro.core.lacc:lacc", _matrix),
    "dist": Driver("repro.core.lacc_dist:lacc_dist", _priced),
    # the 1D layout runs at any rank count
    "spmd": Driver("repro.core.lacc_spmd:lacc_spmd", _ranked, lambda p: p >= 1),
    # CombBLAS grids are square (§VI-A)
    "2d": Driver("repro.core.lacc_2d:lacc_2d", _ranked,
                 lambda p: p >= 1 and math.isqrt(p) ** 2 == p),
}


def driver_of(fn: Callable) -> Optional[Driver]:
    """The entry whose function is *fn*, matched by ``module:name``
    without importing any driver; ``None`` for a callable not in the
    table."""
    target = f"{getattr(fn, '__module__', None)}:{getattr(fn, '__name__', None)}"
    return next((d for d in DRIVERS.values() if d.target == target), None)
