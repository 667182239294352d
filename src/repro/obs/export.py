"""Trace exporters: Chrome ``trace_event`` JSON and flat span records.

Two machine-readable views of one :class:`~repro.obs.tracer.Tracer`:

* :func:`chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and https://ui.perfetto.dev: duration events as
  matched ``"B"``/``"E"`` pairs with microsecond timestamps, span
  attributes and counters in ``args``.  Multiple tracers (e.g. one per
  node count in a ``dist`` sweep) merge into one file under distinct
  ``pid`` lanes via :func:`merge_chrome_traces`.
* :func:`span_records` — one dict per closed span (name, cat, start,
  duration, depth, attrs, counters), convenient for pandas
  post-processing and for diffing runs.

Timestamps are rebased so the earliest root starts at 0; with the
simulated clock the "microseconds" are model microseconds, which keeps
Figure-8-style breakdowns legible in the viewer.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from .tracer import Span, Tracer

__all__ = [
    "chrome_trace",
    "merge_chrome_traces",
    "write_chrome_trace",
    "span_records",
]


def _args(span: Span) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    out.update(span.attrs)
    out.update(span.counters)
    return out


def _t0(tracer: Tracer) -> float:
    return min((r.t0 for r in tracer.roots), default=0.0)


def chrome_trace(
    tracer: Tracer,
    pid: int = 0,
    process_name: str = "repro",
    tid: int = 0,
    base: Optional[float] = None,
    sort_index: Optional[int] = None,
    thread_name: Optional[str] = None,
) -> Dict[str, Any]:
    """Render a tracer as a Chrome Trace Event Format dict.

    Every closed span becomes a ``"B"``/``"E"`` pair on thread *tid* of
    *pid*; timestamps are microseconds from the first root's start.
    Program order is single-threaded, so a depth-first emission is already
    monotone in ``ts`` — the test suite asserts this invariant.  The
    emitted stream is also sorted by ``ts`` (metadata first; the sort is
    stable, so ``B``/``E`` nesting at equal timestamps is preserved), so
    strict pickier-than-Chrome parsers get monotone timestamps per
    ``pid``/``tid`` whatever order the roots were recorded in.

    Multi-lane merges (one pid lane per rank) pass a shared *base* so all
    lanes keep one time origin, *sort_index* to pin lane order in the
    viewer (a ``process_sort_index`` metadata event), and *thread_name* /
    *tid* to label secondary per-process threads (e.g. a worker's
    heartbeat thread).
    """
    if base is None:
        base = _t0(tracer)
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": process_name},
        }
    ]
    if sort_index is not None:
        events.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"sort_index": sort_index},
            }
        )
    if thread_name is not None:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": thread_name},
            }
        )

    def emit(span: Span) -> None:
        if span.t1 is None:  # still open: skip (profile always closes spans)
            return
        events.append(
            {
                "name": span.name,
                "cat": span.cat or "span",
                "ph": "B",
                "ts": (span.t0 - base) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": _args(span),
            }
        )
        for c in span.children:
            emit(c)
        events.append(
            {
                "name": span.name,
                "cat": span.cat or "span",
                "ph": "E",
                "ts": (span.t1 - base) * 1e6,
                "pid": pid,
                "tid": tid,
            }
        )

    for root in tracer.roots:
        emit(root)
    # one globally ts-sorted stream: metadata first, then every span
    # event in timestamp order (stable, so depth-first B/E nesting
    # survives ties)
    events.sort(key=lambda e: (0 if e["ph"] == "M" else 1, e.get("ts", 0.0)))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def merge_chrome_traces(traces: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Concatenate several :func:`chrome_trace` dicts into one file.

    Callers give each constituent trace a distinct ``pid`` so the viewer
    shows them as separate process lanes (a ``dist`` sweep uses the node
    count as the pid).
    """
    events: List[Dict[str, Any]] = []
    for t in traces:
        events.extend(t["traceEvents"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer_or_dict, path: str) -> str:
    """Write a tracer (or an already-rendered trace dict) as JSON."""
    doc = (
        tracer_or_dict
        if isinstance(tracer_or_dict, dict)
        else chrome_trace(tracer_or_dict)
    )
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def span_records(tracer: Tracer) -> List[Dict[str, Any]]:
    """Flatten a tracer into per-span dict records (depth-first order)."""
    base = _t0(tracer)
    out: List[Dict[str, Any]] = []
    for span, depth in tracer.walk():
        if span.t1 is None:
            continue
        out.append(
            {
                "name": span.name,
                "cat": span.cat,
                "depth": depth,
                "t0": span.t0 - base,
                "seconds": span.duration,
                "self_seconds": span.self_duration,
                "attrs": dict(span.attrs),
                "counters": dict(span.counters),
            }
        )
    return out

