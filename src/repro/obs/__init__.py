"""repro.obs — unified tracing & metrics across every layer.

The paper's evaluation is an observability exercise: per-step timing
breakdowns (Fig. 8), converged-vertex fractions (Fig. 7) and
communication-volume attribution (Fig. 3, Table IV).  This package
captures all of it from one mechanism — a hierarchical span tracer that
the GraphBLAS primitives, the simulated collectives/cost model, and the
LACC drivers all hook into:

* :mod:`repro.obs.tracer` — :class:`Span`, :class:`Tracer`,
  :class:`NullTracer` (zero-overhead off switch), and the one obs scope:
  :func:`activate` scopes the process-wide tracer, metric registry and
  flight recorder together, and :func:`current`,
  :func:`metrics_registry` and :func:`flight_recorder` read them.
* :mod:`repro.obs.metrics` — labelled :class:`MetricRegistry` (counters,
  gauges, log-bucketed histograms) with the same null-object off switch
  and JSONL snapshots.
* :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON and
  JSON-lines exporters (metric counters ride along as ``C`` events;
  loaded on first use).
* :mod:`repro.obs.render` — ASCII flamegraph and top-table renderers
  (loaded on first use).
* :mod:`repro.obs.profile` — ``(result, tracer)`` one-callers behind the
  ``python -m repro profile`` CLI (imported explicitly; it pulls in
  :mod:`repro.core`).
* :mod:`repro.obs.analytics` — per-rank load-imbalance reports (λ per
  LACC step, compute/comm/idle attribution, stragglers) behind
  ``python -m repro analyze`` (imported explicitly, like ``profile``).
* :mod:`repro.obs.overhead` — disabled-mode overhead measurement shared
  by the CI gate and the tier-1 test suite (imported explicitly).
* :mod:`repro.obs.flight` — the flight recorder: one append-only,
  causally-ordered, schema-versioned run record merging spans, metric
  samples, fault/retry injections and recovery events, with the same
  null-object off switch.
* :mod:`repro.obs.anomaly` — streaming detectors over the flight record
  (convergence stall, load-imbalance spikes, retry storms, stragglers,
  checkpoint churn) emitting :class:`Anomaly` verdicts with evidence
  pointers (loaded on first use).
* :mod:`repro.obs.explain` — the run-diagnosis engine behind
  ``python -m repro explain`` (imported explicitly; it pulls in
  :mod:`repro.core`).

Typical use::

    from repro.obs import MetricRegistry, Tracer, activate, render, export
    tr, reg = Tracer(), MetricRegistry()
    with activate(tr, metrics=reg):
        lacc(A)                # run/iteration/step spans nest in tr
    print(render.top_table(tr))
    export.write_chrome_trace(tr, "out.json")   # open in ui.perfetto.dev

``export``, ``render`` and ``anomaly`` are loaded on first use: the
package's module ``__getattr__`` imports the submodule the first time it
or one of its names listed in ``__all__`` is looked up here, so a driver
run that only traces never imports them.
"""

import importlib

from . import metrics
from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    NullRegistry,
)
from .flight import (
    NULL_FLIGHT,
    SCHEMA_VERSION,
    FlightEvent,
    FlightRecorder,
    NullFlightRecorder,
    read_flight_jsonl,
)
from .tracer import (
    NULL_TRACER,
    NullSpan,
    NullTracer,
    Span,
    Tracer,
    activate,
    current,
    flight_recorder,
    metrics_registry,
)

# submodule -> its names in __all__; no driver run needs them, so
# __getattr__ (PEP 562) imports each on first lookup
_LAZY = {
    "export": (
        "chrome_trace", "merge_chrome_traces", "span_records",
        "write_chrome_trace", "write_jsonl",
    ),
    "render": ("flamegraph", "html_timeline", "top_table", "write_html_timeline"),
    "anomaly": (
        "Anomaly", "AnomalyDetector", "CheckpointChurnDetector",
        "ConvergenceStallDetector", "LoadImbalanceDetector",
        "RetryStormDetector", "StragglerDetector", "default_detectors",
    ),
}
_LAZY_NAMES = {name: mod for mod, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name not in _LAZY and name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY_NAMES.get(name, name)}", __name__)
    return module if name in _LAZY else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})


__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NullSpan",
    "NULL_TRACER",
    "activate",
    "current",
    "metrics_registry",
    "flight_recorder",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "FlightEvent",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "SCHEMA_VERSION",
    "read_flight_jsonl",
    *_LAZY_NAMES,
    "export",
    "metrics",
    "render",
]
