"""Labelled metric registry — the standing-rates side of observability.

:mod:`repro.obs.tracer` answers *"where did the time of this run go"*;
this module answers *"what are the system's standing rates and
distributions"*: how many mxv calls took the SpMSpV path, how many words
each collective moved, how skewed the per-rank request counts were, how
many checkpoints/repairs/rollbacks the supervisor performed.  Where a
span dies with its trace, a metric accumulates across a whole process
and exports as a flat, diffable snapshot: the flight recorder samples
it, and the real-process backend ships each worker's snapshot to the
conductor.

Three instrument kinds, all labelled:

* :class:`Counter` — monotonically increasing total (``inc``);
* :class:`Gauge` — last-write-wins level (``set``/``inc``);
* :class:`Histogram` — log₂-bucketed distribution (``observe``) tracking
  count / sum / min / max plus per-bucket counts, so skew and size
  distributions survive aggregation without storing samples.

Design constraints (shared with the tracer)
-------------------------------------------
* **Zero cost when off.**  Instrumented call sites do::

      reg = metrics_registry()
      if reg:                       # falsy NullRegistry when disabled
          reg.counter("graphblas_mxv_total", path=path).inc()

  With no registry activated, :func:`metrics_registry` returns the
  singleton :data:`NULL_REGISTRY`, which is falsy — the guarded block
  never runs, so disabled call sites pay one function call and one
  truthiness check.  (The null instruments still exist for unguarded
  one-off sites; they absorb every method.)
* **No repro dependencies.**  Standard library only, so every layer can
  hook in without import cycles.
* **One obs scope**: :func:`repro.obs.tracer.activate` (``metrics=``)
  scopes the process-wide registry next to the tracer and the flight
  recorder; :func:`repro.obs.tracer.metrics_registry` reads it.

Exports: :meth:`MetricRegistry.snapshot` / :meth:`MetricRegistry.write_jsonl`
(machine-readable records) and Chrome-trace counter events via
:func:`repro.obs.export.chrome_trace` (``registry=`` argument).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
]

#: (name, sorted (label, value) pairs) — one instrument per distinct key
LabelKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _label_key(name: str, labels: Dict[str, Any]) -> LabelKey:
    if not labels:
        return name, ()
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing total for one label set."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def __bool__(self) -> bool:
        return True


class Gauge:
    """Last-write-wins level for one label set."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __bool__(self) -> bool:
        return True


class Histogram:
    """Log₂-bucketed distribution for one label set.

    Bucket *i* counts observations with ``2^(i-1) < v <= 2^i`` (bucket 0
    holds ``v <= 1``, including zero and negatives, which the quantities
    recorded here — nvals, words, skew factors — never are in practice).
    Exponential buckets keep a 1-to-10⁹ dynamic range in ~30 integers,
    which is why the exposition stays diffable.
    """

    __slots__ = ("name", "labels", "count", "total", "vmin", "vmax", "buckets")
    kind = "histogram"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...]):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.buckets: Dict[int, int] = {}

    @staticmethod
    def bucket_index(value: float) -> int:
        if value <= 1.0:
            return 0
        return max(math.ceil(math.log2(value)), 0)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        b = self.bucket_index(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_bounds(self) -> List[Tuple[float, int]]:
        """``(upper_bound, count)`` per occupied bucket, ascending."""
        return [(float(2 ** b), n) for b, n in sorted(self.buckets.items())]

    def __bool__(self) -> bool:
        return True


class MetricRegistry:
    """Process-wide store of labelled counters, gauges and histograms.

    Instruments are created on first use and cached by ``(name, labels)``;
    a name must keep one kind for its lifetime (registering
    ``foo`` as both a counter and a gauge is a bug and raises).  The
    ``help`` argument documents a metric at its call site; it is not
    stored.
    """

    def __init__(self):
        self._metrics: Dict[LabelKey, Any] = {}
        self._kinds: Dict[str, str] = {}

    # -- instrument access ---------------------------------------------
    def _get(self, cls, name: str, labels: Dict[str, Any]):
        key = _label_key(name, labels)
        inst = self._metrics.get(key)
        seen = self._kinds.get(name)
        if seen is not None and seen != cls.kind:
            raise ValueError(
                f"metric {name!r} already registered as {seen}, "
                f"cannot re-register as {cls.kind}"
            )
        if inst is None:
            self._kinds[name] = cls.kind
            inst = cls(name, key[1])
            self._metrics[key] = inst
        return inst

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, help: str = "", **labels: Any) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- reading --------------------------------------------------------
    def __bool__(self) -> bool:
        return True

    @property
    def enabled(self) -> bool:
        return True

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Any]:
        """Instruments in deterministic (name, labels) order."""
        return iter(sorted(self._metrics.values(), key=lambda m: (m.name, m.labels)))

    def find(self, name: str) -> List[Any]:
        """Every instrument (one per label set) registered under *name*."""
        return [m for m in self if m.name == name]

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """Scalar value of one counter/gauge, or ``None`` if never touched."""
        inst = self._metrics.get(_label_key(name, labels))
        return None if inst is None else getattr(inst, "value", None)

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family's values across all label sets."""
        return sum(m.value for m in self.find(name) if hasattr(m, "value"))

    # -- exports --------------------------------------------------------
    def snapshot(self) -> List[Dict[str, Any]]:
        """One plain dict per instrument — the JSONL/regression view."""
        out: List[Dict[str, Any]] = []
        for m in self:
            rec: Dict[str, Any] = {
                "name": m.name,
                "kind": m.kind,
                "labels": dict(m.labels),
            }
            if isinstance(m, Histogram):
                rec.update(
                    count=m.count,
                    sum=m.total,
                    min=None if m.count == 0 else m.vmin,
                    max=None if m.count == 0 else m.vmax,
                    buckets={str(int(ub)): n for ub, n in m.bucket_bounds()},
                )
            else:
                rec["value"] = m.value
            out.append(rec)
        return out

    def write_jsonl(self, path: str) -> str:
        """Write one JSON object per instrument, one per line."""
        with open(path, "w") as fh:
            for rec in self.snapshot():
                fh.write(json.dumps(rec) + "\n")
        return path

    def merge_snapshot(
        self, snapshot: List[Dict[str, Any]], **extra_labels: Any
    ) -> int:
        """Fold another registry's :meth:`snapshot` into this one.

        The cross-process path: each worker of the real-process backend
        snapshots its own registry and ships the rows over the obs
        sideband; the conductor merges them here, usually stamping
        ``rank=...`` as an *extra_labels* so per-rank series stay
        distinguishable.  Counters accumulate, gauges last-write-win,
        histograms merge their count/sum/min/max and log₂ buckets.
        Returns the number of rows merged; malformed rows raise.
        """
        merged = 0
        for rec in snapshot:
            labels = dict(rec.get("labels") or {})
            labels.update(extra_labels)
            kind = rec.get("kind")
            name = str(rec["name"])
            if kind == "counter":
                self.counter(name, **labels).inc(float(rec.get("value", 0.0)))
            elif kind == "gauge":
                self.gauge(name, **labels).set(float(rec.get("value", 0.0)))
            elif kind == "histogram":
                h = self.histogram(name, **labels)
                count = int(rec.get("count", 0))
                if count > 0:
                    h.count += count
                    h.total += float(rec.get("sum", 0.0))
                    if rec.get("min") is not None:
                        h.vmin = min(h.vmin, float(rec["min"]))
                    if rec.get("max") is not None:
                        h.vmax = max(h.vmax, float(rec["max"]))
                    for ub, n in (rec.get("buckets") or {}).items():
                        b = Histogram.bucket_index(float(ub))
                        h.buckets[b] = h.buckets.get(b, 0) + int(n)
            else:
                raise ValueError(f"metric {name!r}: unknown kind {kind!r}")
            merged += 1
        return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricRegistry({len(self)} instruments)"


class _NullInstrument:
    """Falsy no-op counter/gauge/histogram: absorbs every recording call."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def __bool__(self) -> bool:
        return False


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The off switch: falsy, and every instrument is a shared no-op.

    Guarded call sites (``if reg:``) skip metric computation entirely;
    unguarded ones get :data:`_NULL_INSTRUMENT` back — no allocation, no
    dict lookup.  The CI overhead gate pins NullRegistry-mode LACC below
    5 % of the uninstrumented baseline, same budget as the NullTracer.
    """

    __slots__ = ()

    def counter(self, name: str, help: str = "", **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", **labels: Any) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def __bool__(self) -> bool:
        return False

    @property
    def enabled(self) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[Any]:
        return iter(())

    def find(self, name: str) -> List[Any]:
        return []

    def value(self, name: str, **labels: Any) -> None:
        return None

    def total(self, name: str) -> float:
        return 0.0

    def snapshot(self) -> List[Dict[str, Any]]:
        return []


#: Shared disabled registry — the default target of :func:`metrics_registry`.
NULL_REGISTRY = NullRegistry()
