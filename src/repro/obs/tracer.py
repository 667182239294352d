"""Hierarchical span tracer — the core of the observability layer.

A :class:`Tracer` records a tree of :class:`Span`\\ s: the LACC driver opens
an ``iteration`` span, each step opens a ``step`` span inside it, and every
GraphBLAS primitive / simulated collective executed within opens a leaf
span carrying its counters (nvals, flops, words, messages, model seconds).
The result is exactly the data behind the paper's Figures 3, 7 and 8, but
captured once and exported in any format (see :mod:`repro.obs.export`).

Design constraints
------------------
* **Zero cost when off.**  Instrumented call sites do::

      with current().span("mxv", "graphblas") as sp:
          ...
          if sp:  # guard counter *computation*, not just recording
              sp.add("nvals_in", u.nvals)

  With no tracer activated, :func:`current` returns the singleton
  :data:`NULL_TRACER`, whose :meth:`~NullTracer.span` hands back one shared
  falsy no-op span — no allocation, no clock read, no dict updates.
* **No repro dependencies.**  Beyond the standard library this module
  imports only the null object of :mod:`repro.obs.flight` (itself
  stdlib-only), so every layer (graphblas, mpisim, core, cli) can hook
  into it without import cycles.
* **One obs scope.**  :func:`activate` scopes the process-wide tracer
  and flight recorder together; :func:`current` and
  :func:`flight_recorder` read them.
* **Single-threaded program order.**  Spans close LIFO; the span stack is
  per-tracer.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .flight import NULL_FLIGHT

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NullSpan",
    "NULL_TRACER",
    "current",
    "flight_recorder",
    "activate",
]


class Span:
    """One timed region: name, category, start/end, attributes, counters.

    ``attrs`` are set-once facts (``path="spmspv"``); ``counters`` are
    additive quantities (``words``, ``flops``) that :meth:`add` accumulates
    and exporters can sum over subtrees.
    """

    __slots__ = ("name", "cat", "t0", "t1", "attrs", "counters", "children")

    def __init__(self, name: str, cat: str, t0: float):
        self.name = name
        self.cat = cat
        self.t0 = t0
        self.t1: Optional[float] = None
        self.attrs: Dict[str, Any] = {}
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []

    # -- recording ------------------------------------------------------
    def add(self, counter: str, value: float) -> None:
        """Accumulate *value* into a named counter."""
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def set(self, key: str, value: Any) -> None:
        """Set a span attribute (last write wins)."""
        self.attrs[key] = value

    # -- reading --------------------------------------------------------
    @property
    def duration(self) -> float:
        """Seconds between open and close (0.0 while still open)."""
        return 0.0 if self.t1 is None else self.t1 - self.t0

    @property
    def self_duration(self) -> float:
        """Duration minus the time spent in child spans."""
        return self.duration - sum(c.duration for c in self.children)

    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """Depth-first ``(span, depth)`` over this span and descendants."""
        yield self, depth
        for c in self.children:
            yield from c.walk(depth + 1)

    def counter_total(self, counter: str) -> float:
        """Sum of *counter* over this span and every descendant."""
        return sum(s.counters.get(counter, 0.0) for s, _ in self.walk())

    def find(self, name: Optional[str] = None, cat: Optional[str] = None) -> List["Span"]:
        """All descendants (inclusive) matching *name* and/or *cat*."""
        return [
            s
            for s, _ in self.walk()
            if (name is None or s.name == name) and (cat is None or s.cat == cat)
        ]

    def __bool__(self) -> bool:  # real spans are truthy; NullSpan is not
        return True

    # -- serialization (workers ship span forests to the conductor as
    #    obs frames; only JSON-safe attr/counter values survive) --
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cat": self.cat,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Span":
        sp = cls(str(d["name"]), str(d.get("cat", "")), float(d["t0"]))
        t1 = d.get("t1")
        sp.t1 = None if t1 is None else float(t1)
        sp.attrs.update(d.get("attrs") or {})
        sp.counters.update(d.get("counters") or {})
        sp.children = [cls.from_dict(c) for c in d.get("children") or []]
        return sp

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"{self.duration * 1e3:.3f}ms" if self.t1 is not None else "open"
        return f"Span({self.cat}/{self.name}, {state}, {len(self.children)} children)"


class _SpanContext:
    """Context manager opening a span on enter and closing it on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            # close-with-error: the span still gets an end time (so traces
            # remain well-formed and exportable) and records what killed
            # it.  Never raise from here — that would mask the original
            # exception mid-unwind.
            self._span.set("error", f"{exc_type.__name__}: {exc}")
            try:
                self._tracer._close(self._span)
            except RuntimeError:
                pass
        else:
            self._tracer._close(self._span)
        return False


class Tracer:
    """Records a forest of spans using a monotone *clock*.

    Parameters
    ----------
    clock:
        Zero-argument callable returning seconds.  Defaults to
        :func:`time.perf_counter` (wall time); the simulated-distributed
        driver passes the cost model's simulated clock instead so span
        extents are α–β model time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- recording ------------------------------------------------------
    def span(self, name: str, cat: str = "", **attrs: Any) -> _SpanContext:
        """Open a nested span; use as ``with tracer.span(...) as sp:``."""
        sp = Span(name, cat, self.clock())
        if attrs:
            sp.attrs.update(attrs)
        if self._stack:
            self._stack[-1].children.append(sp)
        else:
            self.roots.append(sp)
        self._stack.append(sp)
        return _SpanContext(self, sp)

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order (spans must nest LIFO)"
            )
        span.t1 = self.clock()
        self._stack.pop()

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def innermost(
        self, name: Optional[str] = None, cat: Optional[str] = None
    ) -> Optional[Span]:
        """The innermost *open* span matching *name*/*cat*, or ``None``.

        Lets deeply nested code attribute events to an enclosing region
        without threading it through every call signature — e.g. the fault
        envelope stamps :class:`~repro.faults.CollectiveError` with the
        iteration of the enclosing ``iteration`` span.
        """
        for sp in reversed(self._stack):
            if (name is None or sp.name == name) and (cat is None or sp.cat == cat):
                return sp
        return None

    @property
    def enabled(self) -> bool:
        return True

    # -- reading --------------------------------------------------------
    def walk(self) -> Iterator[Tuple[Span, int]]:
        """Depth-first ``(span, depth)`` over every recorded span."""
        for r in self.roots:
            yield from r.walk()

    def find(self, name: Optional[str] = None, cat: Optional[str] = None) -> List[Span]:
        """All recorded spans matching *name* and/or *cat*."""
        out: List[Span] = []
        for r in self.roots:
            out.extend(r.find(name, cat))
        return out

    def counter_total(self, counter: str) -> float:
        """Sum of a counter over every recorded span."""
        return sum(r.counter_total(counter) for r in self.roots)

    def max_depth(self) -> int:
        """Number of nesting levels (0 for an empty trace)."""
        return max((d + 1 for _, d in self.walk()), default=0)

    # -- serialization --------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        """The recorded forest as plain dicts (JSON-safe; closed and open
        spans alike — exporters already skip open ones).  Snapshots the
        root list so a tracer another thread is appending to (the worker
        heartbeat tracer) serializes without tripping over the append."""
        return [r.to_dict() for r in list(self.roots)]

    @classmethod
    def from_dicts(
        cls,
        roots: List[Dict[str, Any]],
        clock: Callable[[], float] = time.perf_counter,
    ) -> "Tracer":
        """Rebuild a tracer from :meth:`to_dicts` output (all spans are
        treated as closed history; the span stack stays empty)."""
        tr = cls(clock)
        tr.roots = [Span.from_dict(d) for d in roots]
        return tr

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n = sum(1 for _ in self.walk())
        return f"Tracer({n} spans, depth={self.max_depth()})"


class NullSpan:
    """Falsy no-op span: absorbs ``add``/``set`` and context management."""

    __slots__ = ()

    def add(self, counter: str, value: float) -> None:
        pass

    def set(self, key: str, value: Any) -> None:
        pass

    def __bool__(self) -> bool:
        return False

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = NullSpan()


class NullTracer:
    """The off switch: every operation is a no-op returning shared nulls.

    ``NullTracer.span`` hands back one process-wide :class:`NullSpan`, so
    instrumented code pays only a method call and an (empty) ``with`` block
    when tracing is disabled — the CI overhead smoke check pins this below
    5 % of LACC's runtime.
    """

    __slots__ = ()

    def span(self, name: str, cat: str = "", **attrs: Any) -> NullSpan:
        return _NULL_SPAN

    @property
    def current(self) -> None:
        return None

    def innermost(self, name: Optional[str] = None, cat: Optional[str] = None) -> None:
        return None

    @property
    def enabled(self) -> bool:
        return False

    @property
    def roots(self) -> List[Span]:
        return []

    def walk(self) -> Iterator[Tuple[Span, int]]:
        return iter(())

    def find(self, name: Optional[str] = None, cat: Optional[str] = None) -> List[Span]:
        return []

    def counter_total(self, counter: str) -> float:
        return 0.0

    def max_depth(self) -> int:
        return 0


#: Shared disabled tracer — the default target of :func:`current`.
NULL_TRACER = NullTracer()

_tracer = NULL_TRACER
_flight = NULL_FLIGHT


def current():
    """The process-wide active tracer (:data:`NULL_TRACER` when off).

    Instrumented library code (GraphBLAS ops, simulated collectives, the
    cost model) reads this instead of taking a tracer parameter, so turning
    tracing on never changes a call signature.
    """
    return _tracer


def flight_recorder():
    """The process-wide active flight recorder (:data:`NULL_FLIGHT` when
    off) — the same contract as :func:`current`."""
    return _flight


@contextlib.contextmanager
def activate(tracer=None, *, flight=None):
    """Scope either or both of tracer and flight recorder as the
    process-wide active ones::

        tr, fr = Tracer(), FlightRecorder()
        with activate(tr, flight=fr):
            lacc(A)                # spans land in tr, events in fr

    A facet left as ``None`` keeps its current value.  Activations nest;
    on exit, also on an exception, both are restored.  Yields the first
    facet given.
    """
    global _tracer, _flight
    prev = _tracer, _flight
    if tracer is not None:
        _tracer = tracer
    if flight is not None:
        _flight = flight
    try:
        yield tracer if tracer is not None else flight
    finally:
        _tracer, _flight = prev
