"""The serial and simulated-distributed drivers as programs on the parent
array.

* Both drivers run the one loop of ``repro.core.lacc``, which looks up
  ``cond_hook``, ``uncond_hook``, ``starcheck`` and ``shortcut`` as that
  module's globals at call time, so a wrapper patched in there (the e2e
  harness's per-layer timers, the oracle tests) sees every call of either
  driver.  ``repro.core.lacc_dist`` keeps the four names bound as well,
  for timers that patch both modules.
* Serial ``lacc`` makes no ``assign`` call: hook scatters and the shortcut
  write the parent array directly.  Its ``mxv`` calls — the paper's SpMV,
  the only GraphBLAS objects left — are pinned per corpus graph; a fresh
  run's first conditional hook makes none.
* An edgeless run stamps ``run_start`` and ``run_end`` in the flight
  record on both drivers.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.core.hooking import cond_hook, uncond_hook
from repro.core.lacc import lacc
from repro.core.lacc_dist import lacc_dist
from repro.core.shortcut import shortcut
from repro.core.starcheck import starcheck
from repro.graphblas import Matrix
from repro.graphs import generators as gen
from repro.mpisim.machine import EDISON
from repro.obs.flight import FlightRecorder
from repro.obs.tracer import Tracer, activate

from ..differential.corpus import FAMILIES, SEEDS, make_graph

DRIVERS = ("lacc", "lacc_dist")
STEPS = {
    "cond_hook": cond_hook,
    "uncond_hook": uncond_hook,
    "starcheck": starcheck,
    "shortcut": shortcut,
}


def _run(driver: str, A: Matrix):
    if driver == "lacc":
        return lacc(A)
    return lacc_dist(A, EDISON, nodes=4)


@pytest.mark.parametrize("driver", DRIVERS)
def test_step_names_resolve_to_the_step_functions(driver):
    mod = importlib.import_module(f"repro.core.{driver}")
    for name, fn in STEPS.items():
        assert getattr(mod, name) is fn, name


@pytest.mark.parametrize("driver", DRIVERS)
def test_drivers_call_the_module_level_step_names(monkeypatch, driver):
    mod = importlib.import_module("repro.core.lacc")
    calls = dict.fromkeys(STEPS, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in STEPS.items():
        monkeypatch.setattr(mod, name, counting(name, fn))
    res = _run(driver, gen.path_graph(40).to_matrix())
    assert res.n_components == 1
    assert all(calls.values()), calls
    assert calls["cond_hook"] == calls["uncond_hook"] == res.n_iterations


#: mxv spans of one serial lacc run per corpus graph — two hooks per
#: iteration, less the hooks that skip the mxv: iteration 1's conditional
#: one (each row's first column), unconditional ones with no nonstar in
#: scope, conditional ones with one parent in scope
MXV_CALLS = {
    ("bipartiteish", 0): 6, ("bipartiteish", 1): 4, ("bipartiteish", 2): 6,
    ("loopy_dupes", 0): 5, ("loopy_dupes", 1): 5, ("loopy_dupes", 2): 6,
    ("many_tiny", 0): 4, ("many_tiny", 1): 4, ("many_tiny", 2): 4,
    ("single_path", 0): 9, ("single_path", 1): 9, ("single_path", 2): 11,
    ("skewed", 0): 3, ("skewed", 1): 3, ("skewed", 2): 3,
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_serial_lacc_primitive_counts(family, seed):
    tr = Tracer()
    with activate(tr):
        lacc(make_graph(family, seed).to_matrix())
    names = [sp.name for sp, _ in tr.walk() if sp.cat == "graphblas"]
    assert names.count("assign") == 0
    assert names.count("mxv") == MXV_CALLS[(family, seed)]
    assert set(names) == {"mxv"}


@pytest.mark.parametrize("n", [0, 5])
@pytest.mark.parametrize("driver", DRIVERS)
def test_edgeless_run_leaves_a_flight_record(driver, n):
    fr = FlightRecorder()
    with activate(flight=fr):
        res = _run(driver, Matrix.adjacency(n, [], []))
    assert res.n_components == n
    np.testing.assert_array_equal(res.parents, np.arange(n))
    kinds = [e.kind for e in fr.events]
    assert kinds.count("run_start") == 1 and kinds.count("run_end") == 1
    assert kinds.index("run_start") < kinds.index("run_end")
    start = fr.events[kinds.index("run_start")]
    end = fr.events[kinds.index("run_end")]
    assert start.data["n"] == n and start.data["nnz"] == 0
    assert end.data["n_iterations"] == 0
    assert end.data["n_components"] == n
