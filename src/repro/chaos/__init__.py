"""Process-level chaos engineering for the distributed drivers.

Real faults — SIGKILL, SIGSTOP stragglers, abnormal exits, corrupted
shared-memory frames — ride the run's one :class:`~repro.faults.FaultPlan`
(presets ``kill``, ``stall``, ``exit``, ``frame``, ``shrink`` of
:data:`repro.faults.PRESETS`) on a seeded, byte-reproducible schedule.
This package is the harness that verifies the recovery machinery
survives them with byte-identical results.  See ``docs/ROBUSTNESS.md``
("Elastic recovery & chaos") and ``python -m repro chaos --help``.
"""

from .harness import ChaosReport, chaos_run, preset_flags

__all__ = ["ChaosReport", "chaos_run", "preset_flags"]
