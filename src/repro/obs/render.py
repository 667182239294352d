"""Renderers for traces and flight records.

Terminal views are pure text and deterministic (same idiom as
``benchmarks/asciichart.py``), so profile output is diffable and usable
in CI logs:

* :func:`top_table` — aggregate by (category, name): call count, total
  and self seconds, share of the root's time, summed counters.  This is
  the "where does time go" answer below Figure 8's four-step granularity.
* :func:`flamegraph` — the span tree with one bar per span, width
  proportional to duration relative to the root, annotated with the
  hottest counters.

Flight records (:mod:`repro.obs.flight`) additionally render as a
**self-contained HTML timeline** (:func:`html_timeline`): one SVG lane
per event class on the run's clock, faults/retries in red, anomaly
verdicts highlighted with their evidence, no external assets — the file
CI uploads as the ``repro explain`` artifact.
"""

from __future__ import annotations

import html as _html
from typing import Any, Dict, List, Optional, Tuple

from .tracer import Span, Tracer

__all__ = ["top_table", "flamegraph", "html_timeline", "write_html_timeline"]

#: Counters worth annotating inline, in display priority order.
_KEY_COUNTERS = ("flops", "words", "messages", "model_seconds", "nvals_out")


def _fmt_secs(s: float) -> str:
    return f"{s * 1e3:.3f}"


def _fmt_count(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        v = int(v)
        return f"{v / 1e6:.2f}M" if abs(v) >= 1e6 else str(v)
    return f"{v:.3g}"


def top_table(tracer: Tracer, limit: int = 20, by: str = "self") -> str:
    """Aggregate spans by (cat, name) and render the hottest rows.

    ``by`` selects the ranking column: ``"self"`` (default — exclusive
    time, the flat-profile view) or ``"total"`` (inclusive).

    Rows whose spans recorded no counters show ``-`` in the counter
    columns (a measured zero and "never measured" are different facts).
    Aggregates containing errored spans are marked with a ``!`` after the
    name and, when any exist, an ``errs`` column with the error count.
    """
    if by not in ("self", "total"):
        raise ValueError("by must be 'self' or 'total'")
    agg: Dict[Tuple[str, str], Dict[str, float]] = {}
    for span, _ in tracer.walk():
        key = (span.cat, span.name)
        row = agg.setdefault(
            key, {"calls": 0, "total": 0.0, "self": 0.0, "words": 0.0,
                  "messages": 0.0, "flops": 0.0, "errors": 0,
                  "has_counters": 0}
        )
        row["calls"] += 1
        row["total"] += span.duration
        row["self"] += span.self_duration
        if "error" in span.attrs:
            row["errors"] += 1
        if span.counters:  # guard: spans with no counters show "-" not 0
            row["has_counters"] += 1
            for c in ("words", "messages", "flops"):
                row[c] += span.counters.get(c, 0.0)
    if not agg:
        return "(no spans recorded)"
    run_total = sum(r.duration for r in tracer.roots) or 1.0
    ranked = sorted(agg.items(), key=lambda kv: kv[1][by], reverse=True)[:limit]
    any_errors = any(r["errors"] for _, r in ranked)

    headers = ["cat", "name", "calls", "total ms", "self ms", "%", "flops",
               "words", "msgs"]
    if any_errors:
        headers.append("errs")
    rows: List[List[str]] = []
    for (cat, name), r in ranked:
        counted = r["has_counters"] > 0
        rows.append(
            [
                cat or "-",
                name + ("!" if r["errors"] else ""),
                str(int(r["calls"])),
                _fmt_secs(r["total"]),
                _fmt_secs(r["self"]),
                f"{100.0 * r[by] / run_total:.1f}",
                _fmt_count(r["flops"]) if counted else "-",
                _fmt_count(r["words"]) if counted else "-",
                _fmt_count(r["messages"]) if counted else "-",
            ]
            + ([str(int(r["errors"])) if r["errors"] else "-"] if any_errors else [])
        )
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]

    def fmt(cells: List[str]) -> str:
        left_cols = 2  # cat and name are left-justified, numbers right
        parts = [
            c.ljust(w) if i < left_cols else c.rjust(w)
            for i, (c, w) in enumerate(zip(cells, widths))
        ]
        return "  ".join(parts).rstrip()

    return "\n".join([fmt(headers), fmt(["-" * w for w in widths])] + [fmt(r) for r in rows])


def _annotate(span: Span) -> str:
    notes = []
    err = span.attrs.get("error")
    if err:
        # errored spans (recorded since the fault-injection PR) must stay
        # visible in the fold, not silently blend into the timing bars
        notes.append(f"ERROR: {err}")
    path = span.attrs.get("path")
    if path:
        notes.append(str(path))
    for c in _KEY_COUNTERS:
        if c in span.counters:
            v = span.counters[c]
            if c == "model_seconds":
                notes.append(f"model={v * 1e3:.3f}ms")
            else:
                notes.append(f"{c}={_fmt_count(v)}")
    return f" [{', '.join(notes)}]" if notes else ""


def flamegraph(tracer: Tracer, width: int = 100, min_fraction: float = 0.0,
               max_depth: int = 12) -> str:
    """Render the span tree with duration-proportional bars.

    Bars are scaled per root; spans shorter than *min_fraction* of their
    root (or deeper than *max_depth*) are elided with a ``…`` marker so a
    deep trace stays readable.
    """
    lines: List[str] = []
    name_w = max((len(s.name) + 2 * d for s, d in tracer.walk()), default=10)
    name_w = min(max(name_w, 10), 48)
    bar_w = max(width - name_w - 14, 10)

    def emit(span: Span, depth: int, root_total: float) -> None:
        frac = span.duration / root_total if root_total > 0 else 0.0
        label = ("  " * depth + span.name)[:name_w].ljust(name_w)
        bar = "#" * max(int(round(frac * bar_w)), 1 if span.duration > 0 else 0)
        lines.append(
            f"{label} {_fmt_secs(span.duration):>9}ms |{bar.ljust(bar_w)}|"
            + _annotate(span)
        )
        hidden = 0
        for c in span.children:
            if depth + 1 >= max_depth or (
                root_total > 0 and c.duration / root_total < min_fraction
            ):
                hidden += 1
                continue
            emit(c, depth + 1, root_total)
        if hidden:
            lines.append("  " * (depth + 1) + f"… {hidden} spans elided")

    for root in tracer.roots:
        emit(root, 0, root.duration)
    return "\n".join(lines) if lines else "(no spans recorded)"


# ----------------------------------------------------------------------
# flight-record HTML timeline
# ----------------------------------------------------------------------

#: lane order and colour per event kind (anomalies get their own band)
_LANES: List[Tuple[str, str, str]] = [
    ("iteration", "iterations", "#4878d0"),
    ("step", "routed steps", "#6acc64"),
    ("fault", "faults", "#d65f5f"),
    ("retry", "retries", "#ee854a"),
    ("collective_error", "permanent failures", "#a01515"),
    ("checkpoint", "checkpoints", "#956cb4"),
    ("recovery", "recovery", "#dc7ec0"),
]

_SEV_COLOUR = {"critical": "#a01515", "warning": "#ee854a", "info": "#4878d0"}


def _ev_tooltip(ev: Any) -> str:
    bits = [f"#{ev.seq} {ev.kind} @ {ev.ts * 1e3:.4f} ms"]
    if ev.iteration is not None:
        bits.append(f"iteration {ev.iteration}")
    if ev.rank is not None:
        bits.append(f"rank {ev.rank}")
    if ev.step:
        bits.append(f"step {ev.step}")
    for k, v in ev.data.items():
        if k in ("message", "evidence", "data"):
            continue
        bits.append(f"{k}={v}")
    return "\n".join(bits)


def html_timeline(events: List[Any], anomalies: List[Dict[str, Any]],
                  title: str = "flight record") -> str:
    """Render flight events as a self-contained HTML+SVG timeline.

    *anomalies* are the record's verdicts as
    :meth:`~repro.obs.anomaly.Anomaly.to_dict` dicts (e.g.
    :attr:`~repro.obs.explain.RunDiagnosis.anomalies`).  One lane per
    event kind on the run's clock (simulated milliseconds for
    distributed runs), an anomaly band on top whose markers span the
    verdict's evidence window, and an anomaly table below.  Everything is
    inline — no scripts, no external assets — so the file is safe to
    attach to CI artifacts and open anywhere.
    """
    events = sorted(events, key=lambda e: e.seq)
    timed = [e for e in events if e.kind != "run_meta"]
    t0 = min((e.ts for e in timed), default=0.0)
    t1 = max((e.ts for e in timed), default=1.0)
    span = (t1 - t0) or 1.0
    width, lane_h, pad_l, pad_r, pad_t = 960, 26, 150, 20, 30
    plot_w = width - pad_l - pad_r

    def x(ts: float) -> float:
        return pad_l + plot_w * (ts - t0) / span

    run_id = next(
        (e.data.get("run_id") for e in events if e.kind == "run_meta"), None
    )
    lanes = [(k, label, col) for k, label, col in _LANES
             if any(e.kind == k for e in events)]
    height = pad_t + (len(lanes) + 1) * lane_h + 30

    svg: List[str] = [
        f'<svg viewBox="0 0 {width} {height}" xmlns="http://www.w3.org/2000/svg" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#fcfcfc"/>',
    ]
    # clock axis (ms)
    axis_y = pad_t + (len(lanes) + 1) * lane_h + 12
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        ts = t0 + frac * span
        svg.append(
            f'<line x1="{x(ts):.1f}" y1="{pad_t}" x2="{x(ts):.1f}" '
            f'y2="{axis_y - 10}" stroke="#e0e0e0"/>'
            f'<text x="{x(ts):.1f}" y="{axis_y}" text-anchor="middle" '
            f'fill="#666">{(ts - t0) * 1e3:.3f}ms</text>'
        )
    # anomaly band (top): evidence-window bars
    y = pad_t
    svg.append(
        f'<text x="4" y="{y + lane_h - 10}" fill="#333">anomalies '
        f'({len(anomalies)})</text>'
    )
    for a in anomalies:
        colour = _SEV_COLOUR.get(a.get("severity", "info"), "#4878d0")
        evidence = set(a.get("evidence", []))
        ts = [e.ts for e in timed if e.seq in evidence] or [t0]
        xa = x(min(ts))
        xb = max(x(max(ts)), xa + 3)
        msg = _html.escape(str(a.get("message", "")))
        svg.append(
            f'<rect x="{xa:.1f}" y="{y + 4}" width="{xb - xa:.1f}" '
            f'height="{lane_h - 12}" fill="{colour}" fill-opacity="0.75" '
            f'rx="2"><title>{msg}</title></rect>'
        )
    # one lane per event kind
    for kind, label, colour in lanes:
        y += lane_h
        svg.append(
            f'<text x="4" y="{y + lane_h - 10}" fill="#333">'
            f'{_html.escape(label)}</text>'
        )
        for ev in events:
            if ev.kind != kind:
                continue
            tip = _html.escape(_ev_tooltip(ev))
            svg.append(
                f'<rect x="{x(ev.ts) - 1.5:.1f}" y="{y + 5}" width="3" '
                f'height="{lane_h - 14}" fill="{colour}">'
                f'<title>{tip}</title></rect>'
            )
    svg.append("</svg>")

    rows: List[str] = []
    for d in anomalies:
        iters = (
            f"{d.get('first_iteration')}–{d.get('last_iteration')}"
            if d.get("first_iteration") is not None
            else "-"
        )
        rows.append(
            "<tr>"
            f"<td>{_html.escape(str(d.get('detector', '?')))}</td>"
            f"<td class=\"{_html.escape(str(d.get('severity', 'info')))}\">"
            f"{_html.escape(str(d.get('severity', 'info')))}</td>"
            f"<td>{_html.escape(iters)}</td>"
            f"<td>{_html.escape('-' if d.get('rank') is None else str(d['rank']))}</td>"
            f"<td>{_html.escape(str(d.get('message', '')))}</td>"
            "</tr>"
        )
    table = (
        "<table><thead><tr><th>detector</th><th>severity</th>"
        "<th>iterations</th><th>rank</th><th>message</th></tr></thead>"
        "<tbody>" + "".join(rows) + "</tbody></table>"
        if rows
        else "<p class=\"clean\">no anomalies detected — the run looks healthy</p>"
    )
    head = _html.escape(title) + (
        f" <span class=\"runid\">({_html.escape(run_id)})</span>" if run_id else ""
    )
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{_html.escape(title)}</title>"
        "<style>"
        "body{font-family:monospace;margin:1.5em;background:#fff;color:#222}"
        "table{border-collapse:collapse;margin-top:1em}"
        "td,th{border:1px solid #ccc;padding:4px 8px;text-align:left}"
        "td.critical{color:#a01515;font-weight:bold}"
        "td.warning{color:#b35c00}"
        ".clean{color:#2e7d32}.runid{color:#888;font-size:smaller}"
        "</style></head><body>"
        f"<h2>{head}</h2>"
        f"<p>{len(events)} events</p>"
        + "".join(svg)
        + table
        + "</body></html>\n"
    )


def write_html_timeline(
    events: List[Any], anomalies: List[Dict[str, Any]], path: str,
    title: Optional[str] = None
) -> str:
    """Write :func:`html_timeline` output to *path*; returns the path."""
    with open(path, "w") as fh:
        fh.write(html_timeline(events, anomalies, title=title or "flight record"))
    return path
