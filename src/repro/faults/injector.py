"""Buffer-level fault injection and checksum validation.

The retry envelope of both communicators
(:meth:`repro.mpisim.envelope.CommBase._deliver`) uses these helpers:
every collective's outgoing payload is checksummed at the (simulated)
sender, the delivered copies are re-checksummed at the receiver, and any
mismatch triggers a retransmission.  The mutations below model the
classic wire failures — truncated messages, bit corruption, duplicated
packets, zeroed DMA buffers — in a way that is deterministic given the
per-``(seed, call, attempt)`` generator handed out by
:meth:`repro.faults.plan.FaultCall.rng`.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["checksum", "checksums", "inject"]


def checksum(buf: Optional[np.ndarray]) -> int:
    """CRC32 over a buffer's bytes, length and dtype.

    Length and dtype are folded in so truncation and element-size changes
    are detected even when the surviving bytes happen to collide.
    ``None`` (a rank that receives nothing) checksums to 0.
    """
    if buf is None:
        return 0
    a = np.ascontiguousarray(buf)
    h = zlib.crc32(a.tobytes())
    h = zlib.crc32(str(a.shape).encode(), h)
    h = zlib.crc32(a.dtype.str.encode(), h)
    return h


def checksums(leaves: List[Optional[np.ndarray]]) -> List[int]:
    """Per-leaf checksums of a flattened payload."""
    return [checksum(b) for b in leaves]


def _pick_target(
    leaves: List[Optional[np.ndarray]], rng: np.random.Generator, need_data: bool
) -> Optional[int]:
    """Deterministically pick a leaf to damage (``None`` when no leaf
    qualifies — e.g. every buffer in the collective is empty)."""
    candidates = [
        i
        for i, b in enumerate(leaves)
        if b is not None and (b.size > 0 or not need_data)
    ]
    if not candidates:
        return None
    return candidates[int(rng.integers(0, len(candidates)))]


def inject(
    kind: str,
    leaves: List[Optional[np.ndarray]],
    rng: np.random.Generator,
) -> Tuple[List[Optional[np.ndarray]], Optional[int], str]:
    """Damage one leaf of a delivered payload.

    Returns ``(damaged_leaves, leaf_index, detail)``; the input list is
    not modified (the damaged leaf is a copy).  When no leaf can carry
    the fault (all empty), the payload is returned unchanged with
    ``leaf_index=None`` and a ``"no-payload"`` detail — a fault that
    fires into silence is harmless by construction.
    """
    out = list(leaves)
    if kind == "truncate":
        i = _pick_target(out, rng, need_data=True)
        if i is None:
            return out, None, "no-payload"
        buf = out[i]
        drop = int(rng.integers(1, buf.size + 1))
        out[i] = buf[: buf.size - drop].copy()
        return out, i, f"dropped {drop}/{buf.size} words"
    if kind == "corrupt":
        i = _pick_target(out, rng, need_data=True)
        if i is None:
            return out, None, "no-payload"
        buf = out[i].copy()
        j = int(rng.integers(0, buf.size))
        flat = buf.reshape(-1)
        if flat.dtype == np.bool_:
            flat[j] = ~flat[j]
        elif np.issubdtype(flat.dtype, np.integer):
            # XOR with a nonzero mask guarantees the word changes
            mask = int(rng.integers(1, 1 << 16))
            flat[j] = np.bitwise_xor(flat[j], np.asarray(mask, dtype=flat.dtype))
        else:
            flat[j] = flat[j] + (1.0 + abs(float(rng.normal())))
        out[i] = buf
        return out, i, f"flipped word {j}"
    if kind == "duplicate":
        i = _pick_target(out, rng, need_data=True)
        if i is None:
            return out, None, "no-payload"
        buf = out[i]
        k = int(rng.integers(1, buf.size + 1))
        out[i] = np.concatenate([buf, buf[:k]])
        return out, i, f"replayed {k} words"
    if kind == "zero":
        i = _pick_target(out, rng, need_data=True)
        if i is None:
            return out, None, "no-payload"
        out[i] = np.zeros_like(out[i])
        return out, i, f"zeroed {out[i].size} words"
    raise ValueError(f"inject() cannot apply fault kind {kind!r}")
