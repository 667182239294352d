"""Versioned, CRC-checksummed checkpoints of LACC iteration state.

A :class:`Checkpoint` freezes one
:class:`~repro.core.snapshot.IterationSnapshot` — parent vector (original
vertex space), advisory star/active flags, the simulated α–β clock and the
fault plan's RNG cursor — together with a format version and a CRC32 over
every array (via :func:`repro.faults.checksum`, which folds in shape and
dtype, so truncation and dtype drift are caught, not just bit flips).

Two stores share one interface:

* :class:`MemoryCheckpointStore` — a dict keyed by iteration; the cheap
  default the zero-fault overhead budget is measured against.
* :class:`DiskCheckpointStore` — one ``.npz`` per iteration via
  :func:`repro.graphblas.serialize.save_state`, surviving process
  restarts (``python -m repro run --faults P --checkpoint-dir`` writes
  these).

Both verify version + CRC on load and raise
:class:`~repro.recovery.errors.CheckpointCorrupt` on mismatch; the
supervisor's rollback walks newest-first and skips corrupt entries, so a
damaged checkpoint degrades retention, never correctness.
"""

from __future__ import annotations

import os
import re
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.snapshot import IterationSnapshot
from repro.faults.injector import checksum
from repro.graphblas import Vector
from repro.graphblas.serialize import load_state, save_state

from .errors import CheckpointCorrupt

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointStore",
    "MemoryCheckpointStore",
    "DiskCheckpointStore",
]

#: bump when the on-disk layout changes; loads reject other versions
CHECKPOINT_VERSION = 1


def _crc(
    parents: np.ndarray,
    star: Optional[np.ndarray],
    active: Optional[np.ndarray],
    iteration: int,
) -> int:
    """CRC32 over all arrays plus the iteration number."""
    h = checksum(parents)
    h = zlib.crc32(int(checksum(star)).to_bytes(8, "little"), h)
    h = zlib.crc32(int(checksum(active)).to_bytes(8, "little"), h)
    h = zlib.crc32(int(iteration).to_bytes(8, "little", signed=True), h)
    return h


@dataclass
class Checkpoint:
    """One frozen iteration state, self-validating."""

    iteration: int
    parents: np.ndarray  # int64, original vertex space
    star: Optional[np.ndarray] = None
    active: Optional[np.ndarray] = None
    simulated_seconds: float = 0.0
    plan_cursor: int = 0
    version: int = CHECKPOINT_VERSION
    crc: int = field(default=0)

    @classmethod
    def from_snapshot(cls, snap: IterationSnapshot) -> "Checkpoint":
        """Seal a driver snapshot (computes the CRC)."""
        ck = cls(
            iteration=snap.iteration,
            parents=np.asarray(snap.parents, dtype=np.int64),
            star=None if snap.star is None else np.asarray(snap.star, dtype=bool),
            active=(
                None if snap.active is None else np.asarray(snap.active, dtype=bool)
            ),
            simulated_seconds=float(snap.simulated_seconds),
            plan_cursor=int(snap.plan_cursor),
        )
        ck.crc = ck.compute_crc()
        return ck

    @property
    def n(self) -> int:
        return int(self.parents.size)

    #: payload words a store moves when writing/reading this checkpoint
    #: (the quantity the supervisor charges through the α–β model)
    @property
    def words(self) -> int:
        w = self.parents.size
        if self.star is not None:
            w += self.star.size
        if self.active is not None:
            w += self.active.size
        return int(w)

    def compute_crc(self) -> int:
        return _crc(self.parents, self.star, self.active, self.iteration)

    def verify(self) -> None:
        """Raise :class:`CheckpointCorrupt` on version or CRC mismatch."""
        if self.version != CHECKPOINT_VERSION:
            raise CheckpointCorrupt(
                self.iteration,
                f"version {self.version} != supported {CHECKPOINT_VERSION}",
            )
        actual = self.compute_crc()
        if actual != self.crc:
            raise CheckpointCorrupt(
                self.iteration, f"CRC mismatch (stored {self.crc}, actual {actual})"
            )

    def to_snapshot(self) -> IterationSnapshot:
        """The resume-state view drivers accept."""
        return IterationSnapshot(
            iteration=self.iteration,
            parents=self.parents.copy(),
            star=None if self.star is None else self.star.copy(),
            active=None if self.active is None else self.active.copy(),
            simulated_seconds=self.simulated_seconds,
            plan_cursor=self.plan_cursor,
        )


class CheckpointStore:
    """Interface both backends implement.

    ``keep`` bounds retention: only the newest *keep* checkpoints are
    kept (older ones are pruned on save).  ``None`` keeps everything.
    """

    def __init__(self, keep: Optional[int] = None):
        if keep is not None and keep < 1:
            raise ValueError("keep must be >= 1 (or None for unbounded)")
        self.keep = keep

    # -- subclass surface ------------------------------------------------
    def iterations(self) -> List[int]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _write(self, ck: Checkpoint) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _read(self, iteration: int) -> Checkpoint:  # pragma: no cover - abstract
        raise NotImplementedError

    def _delete(self, iteration: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- shared behaviour -------------------------------------------------
    def save(self, ck: Checkpoint) -> None:
        """Store (sealing unsealed checkpoints), then prune to ``keep``."""
        if ck.crc == 0:
            ck.crc = ck.compute_crc()
        self._write(ck)
        if self.keep is not None:
            for it in sorted(self.iterations())[: -self.keep]:
                self._delete(it)

    def load(self, iteration: Optional[int] = None) -> Checkpoint:
        """Load (and CRC-verify) one checkpoint; newest when unspecified."""
        its = self.iterations()
        if not its:
            raise CheckpointCorrupt(-1, "store is empty")
        if iteration is None:
            iteration = max(its)
        if iteration not in its:
            raise CheckpointCorrupt(iteration, "no checkpoint for this iteration")
        ck = self._read(iteration)
        ck.verify()
        return ck

    def latest_valid(self, before: Optional[int] = None) -> Optional[Checkpoint]:
        """Newest checkpoint that verifies, optionally strictly older than
        iteration *before*; corrupt entries are skipped (rollback walk)."""
        for it in sorted(self.iterations(), reverse=True):
            if before is not None and it >= before:
                continue
            try:
                return self.load(it)
            except CheckpointCorrupt:
                continue
        return None

    def __len__(self) -> int:
        return len(self.iterations())


class MemoryCheckpointStore(CheckpointStore):
    """In-process store — the low-overhead default."""

    def __init__(self, keep: Optional[int] = None):
        super().__init__(keep)
        self._by_iter: Dict[int, Checkpoint] = {}

    def iterations(self) -> List[int]:
        return sorted(self._by_iter)

    def _write(self, ck: Checkpoint) -> None:
        self._by_iter[ck.iteration] = ck

    def _read(self, iteration: int) -> Checkpoint:
        return self._by_iter[iteration]

    def _delete(self, iteration: int) -> None:
        self._by_iter.pop(iteration, None)


class DiskCheckpointStore(CheckpointStore):
    """One ``.npz`` per iteration under *directory* (created on demand)."""

    _NAME = re.compile(r"^ckpt_(\d+)\.npz$")

    def __init__(self, directory: str, keep: Optional[int] = None):
        super().__init__(keep)
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, iteration: int) -> str:
        return os.path.join(self.directory, f"ckpt_{iteration:06d}.npz")

    def iterations(self) -> List[int]:
        out = []
        for name in os.listdir(self.directory):
            m = self._NAME.match(name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def _write(self, ck: Checkpoint) -> None:
        vectors = {"parents": Vector.dense(ck.parents)}
        if ck.star is not None:
            vectors["star"] = Vector.dense(ck.star)
        if ck.active is not None:
            vectors["active"] = Vector.dense(ck.active)
        save_state(
            self._path(ck.iteration),
            vectors,
            meta={
                "iteration": ck.iteration,
                "simulated_seconds": ck.simulated_seconds,
                "plan_cursor": ck.plan_cursor,
                "version": ck.version,
                "crc": ck.crc,
            },
        )

    def _read(self, iteration: int) -> Checkpoint:
        try:
            vectors, meta = load_state(self._path(iteration))
        except Exception as exc:  # unreadable archive == corrupt
            raise CheckpointCorrupt(iteration, f"unreadable archive: {exc}") from exc
        star = vectors.get("star")
        active = vectors.get("active")
        return Checkpoint(
            iteration=int(meta["iteration"]),
            parents=vectors["parents"].to_numpy().astype(np.int64),
            star=None if star is None else star.to_numpy().astype(bool),
            active=None if active is None else active.to_numpy().astype(bool),
            simulated_seconds=float(meta["simulated_seconds"]),
            plan_cursor=int(meta["plan_cursor"]),
            version=int(meta["version"]),
            crc=int(meta["crc"]),
        )

    def _delete(self, iteration: int) -> None:
        try:
            os.remove(self._path(iteration))
        except FileNotFoundError:
            pass
