"""Pins of what the LACC drivers record into the active obs scope.

Each case runs a driver with a tracer (and, for (c), a flight recorder)
in scope and compares what landed there with values
recorded in ``obs_scope_expected.json``:

* (a) the span tree of a traced serial ``lacc`` on two corpus graphs:
  ``(depth, name, cat, counters)`` per span, ``wall_seconds`` left out;
* (b) the span tree of a traced ``lacc_dist`` on archaea under the
  ``outage`` fault preset, with each span's extent on the simulated clock;
* (c) the flight ``(kind, iteration, step)`` sequence of one
  ``lacc_dist`` run;
* (d) the ``recovery`` spans of a supervised ``lacc_dist`` run that loses
  a collective to a crash: ``(depth, name, cat, t0, t1)`` in simulated
  seconds.

Floats survive the JSON round trip exactly, so every comparison is ``==``.
"""

import json
import os

import pytest

from repro.core.lacc import lacc
from repro.core.lacc_dist import lacc_dist
from repro.faults import preset
from repro.graphs import corpus
from repro.mpisim.machine import EDISON
from repro.obs.flight import FlightRecorder
from repro.obs.tracer import Tracer, activate
from repro.recovery import Supervisor

with open(os.path.join(os.path.dirname(__file__), "obs_scope_expected.json")) as fh:
    EXPECTED = json.load(fh)


def _plain(value):
    """*value* as the JSON file holds it (tuples become lists)."""
    return json.loads(json.dumps(value))


def _tree(tracer, clock=False):
    rows = []
    for span, depth in tracer.walk():
        counters = {k: v for k, v in span.counters.items() if k != "wall_seconds"}
        row = [depth, span.name, span.cat, counters]
        if clock:
            row += [span.t0, span.t1]
        rows.append(row)
    return _plain(rows)


@pytest.fixture(scope="module")
def archaea():
    return corpus.load("archaea").to_matrix()


@pytest.mark.parametrize("name", ["archaea", "queen_4147"])
def test_serial_span_tree(name):
    A = corpus.load(name).to_matrix()
    tr = Tracer()
    with activate(tr):
        lacc(A)
    assert _tree(tr) == EXPECTED["serial"][name]


def test_dist_span_tree_on_the_simulated_clock(archaea):
    tr = Tracer()
    with activate(tr):
        lacc_dist(archaea, EDISON, nodes=4, faults=preset("outage", seed=0))
    assert _tree(tr, clock=True) == EXPECTED["dist_outage"]


def test_dist_flight_record(archaea):
    tr, fr = Tracer(), FlightRecorder()
    with activate(tr, flight=fr):
        lacc_dist(archaea, EDISON, nodes=4)
    flight = [[e.kind, e.iteration, e.step] for e in fr.events]
    assert _plain(flight) == EXPECTED["dist_flight"]
    assert len(tr.find(cat="iteration")) == len(fr.find("iteration"))


def test_supervised_recovery_spans(archaea):
    tr = Tracer()
    with activate(tr):
        Supervisor().run(
            lacc_dist, archaea, EDISON, nodes=4,
            faults=preset("crash", seed=0, after=25),
        )
    rows = [
        [depth, s.name, s.cat, s.t0, s.t1]
        for s, depth in tr.walk()
        if s.cat == "recovery"
    ]
    assert _plain(rows) == EXPECTED["recovery"]
