"""repro.obs — unified tracing across every layer.

The paper's evaluation is an observability exercise: per-step timing
breakdowns (Fig. 8), converged-vertex fractions (Fig. 7) and
communication-volume attribution (Fig. 3, Table IV).  This package
captures all of it from one mechanism — a hierarchical span tracer that
the GraphBLAS primitives, the simulated collectives/cost model, and the
LACC drivers all hook into:

* :mod:`repro.obs.tracer` — :class:`Span`, :class:`Tracer`,
  :class:`NullTracer` (zero-overhead off switch), and the one obs scope:
  :func:`activate` scopes the process-wide tracer and flight recorder
  together, and :func:`current` and :func:`flight_recorder` read them.
* :mod:`repro.obs.export` — Chrome/Perfetto ``trace_event`` JSON and
  flat span records (loaded on first use).
* :mod:`repro.obs.render` — ASCII flamegraph and top-table renderers
  (loaded on first use).
* :mod:`repro.obs.analytics` — per-rank load-imbalance reports (λ per
  LACC step, compute/comm/idle attribution, stragglers) behind
  ``python -m repro run --analyze`` (imported explicitly).
* :mod:`repro.obs.overhead` — disabled-mode overhead measurement shared
  by the CI gate and the tier-1 test suite (imported explicitly).
* :mod:`repro.obs.flight` — the flight recorder: one append-only,
  causally-ordered, schema-versioned run record merging spans,
  fault/retry injections and recovery events, with the same
  null-object off switch.
* :mod:`repro.obs.anomaly` — :func:`detect` reads a finished flight
  record once, at replay (retry storms, stragglers, checkpoint churn,
  lost ranks, shrink recoveries), and returns :class:`Anomaly` verdicts
  with evidence pointers (loaded on first use).
* :mod:`repro.obs.explain` — the run-diagnosis engine behind
  ``python -m repro explain``: it replays a flight record, such as the
  one ``python -m repro run --record`` writes (imported explicitly).

Typical use::

    from repro.obs import Tracer, activate, render, export
    tr = Tracer()
    with activate(tr):
        lacc(A)                # run/iteration/step spans nest in tr
    print(render.top_table(tr))
    export.write_chrome_trace(tr, "out.json")   # open in ui.perfetto.dev

``export``, ``render`` and ``anomaly`` are loaded on first use: the
package's module ``__getattr__`` imports the submodule the first time it
or one of its names listed in ``__all__`` is looked up here, so a driver
run that only traces never imports them.
"""

import importlib

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
)

# submodule -> its names in __all__; no driver run needs them, so
# __getattr__ (PEP 562) imports each on first lookup
_LAZY = {
    "export": (
        "chrome_trace", "merge_chrome_traces", "span_records",
        "write_chrome_trace",
    ),
    "render": ("flamegraph", "html_timeline", "top_table", "write_html_timeline"),
    "anomaly": ("Anomaly", "detect"),
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
    "flight_recorder",
    "FlightEvent",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "SCHEMA_VERSION",
    "read_flight_jsonl",
    *_LAZY_NAMES,
    "export",
    "render",
]
