"""Differential harness under injected faults.

The fault-tolerance contract from the issue, verbatim:

* every transient preset heals inside the retry envelope — labels stay
  **identical** to the fault-free oracle partition;
* a permanent fault raises :class:`CollectiveError` — never a wrong
  answer;
* injection is byte-reproducible given a seed (two fresh plans produce
  identical event logs **and** identical run results);
* retries surface as priced spans in the Chrome trace export.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lacc_2d import lacc_2d
from repro.core.lacc_dist import lacc_dist
from repro.core.lacc_spmd import lacc_spmd
from repro.faults import CollectiveError, preset
from repro.graphs.validate import same_partition
from repro.mpisim.machine import LAPTOP
from repro.obs import Tracer, activate, chrome_trace

from .corpus import make_graph, oracle_labels

TRANSIENT_PRESETS = ("flaky", "stragglers", "outage")

GRAPHS = [("many_tiny", 0), ("single_path", 1)]


def _run(impl: str, g, plan):
    """Run one faultable implementation under *plan*, returning labels."""
    if impl == "lacc_spmd":
        return lacc_spmd(g, ranks=3, faults=plan).labels
    if impl == "lacc_2d":
        return lacc_2d(g, ranks=4, faults=plan).labels
    if impl == "lacc_dist":
        return lacc_dist(g.to_matrix(), LAPTOP, nodes=1, faults=plan).labels
    raise AssertionError(impl)


FAULTABLE = ("lacc_spmd", "lacc_2d", "lacc_dist")


@pytest.mark.parametrize("impl", FAULTABLE, ids=str)
@pytest.mark.parametrize("name", TRANSIENT_PRESETS, ids=str)
@pytest.mark.parametrize("family,seed", GRAPHS, ids=[f"{f}-s{s}" for f, s in GRAPHS])
def test_transient_faults_recover(family, seed, name, impl):
    """Every transient preset: the answer is exactly the fault-free one."""
    g = make_graph(family, seed)
    plan = preset(name, seed=seed)
    labels = _run(impl, g, plan)
    assert same_partition(labels, oracle_labels(g))
    # the run really was exercised: collectives flowed through the plan
    assert plan.n_calls > 0


@pytest.mark.parametrize("impl", FAULTABLE, ids=str)
def test_permanent_fault_fails_loudly(impl):
    """A permanent fault must raise CollectiveError, never mislabel."""
    g = make_graph("many_tiny", 0)
    with pytest.raises(CollectiveError) as exc:
        _run(impl, g, preset("permanent", seed=3))
    assert "permanent fault" in str(exc.value)
    assert exc.value.attempts >= 1


def test_permanent_fault_error_carries_context():
    g = make_graph("single_path", 0)
    with pytest.raises(CollectiveError) as exc:
        lacc_spmd(g, ranks=3, faults=preset("permanent", seed=1))
    e = exc.value
    assert e.collective  # names the failing collective
    assert "corrupt" in e.kinds


@pytest.mark.parametrize("name", TRANSIENT_PRESETS + ("permanent",), ids=str)
def test_injection_is_byte_reproducible(name):
    """Two fresh plans with the same seed produce byte-identical event
    logs — and transient runs produce identical parent arrays."""
    g = make_graph("many_tiny", 1)
    logs, parents = [], []
    for _ in range(2):
        plan = preset(name, seed=11)
        try:
            res = lacc_spmd(g, ranks=3, faults=plan)
            parents.append(res.parents)
        except CollectiveError:
            assert name == "permanent"
        logs.append(plan.to_json())
    assert logs[0] == logs[1]
    if parents:
        np.testing.assert_array_equal(parents[0], parents[1])


def test_different_seeds_differ():
    """Sanity: the plan seed actually matters (different fault schedule)."""
    g = make_graph("many_tiny", 1)
    a, b = preset("flaky", seed=0), preset("flaky", seed=12345)
    lacc_spmd(g, ranks=3, faults=a)
    lacc_spmd(g, ranks=3, faults=b)
    assert a.to_json() != b.to_json()


def test_retries_appear_as_priced_spans():
    """Retries show up in the Chrome trace as spans with positive
    *simulated* extent (the tracer clock is the α–β cost clock)."""
    g = make_graph("many_tiny", 0)
    plan = preset("outage", seed=0)
    tr = Tracer()
    with activate(tr):
        res = lacc_dist(g.to_matrix(), LAPTOP, nodes=1, faults=plan)
    assert same_partition(res.labels, oracle_labels(g))
    retries = tr.find("retry", "fault")
    assert retries, "outage preset produced no retry spans"
    # every retry span is priced: nonzero simulated duration
    events = chrome_trace(tr)["traceEvents"]
    open_ts = {}
    durations = []
    for e in events:
        if e.get("name", "").startswith("retry"):
            key = (e["name"], e["tid"])
            if e["ph"] == "B":
                open_ts.setdefault(key, []).append(e["ts"])
            elif e["ph"] == "E":
                durations.append(e["ts"] - open_ts[key].pop())
    assert len(durations) == len(retries)
    assert all(d > 0 for d in durations)


def test_stragglers_cost_more_than_clean():
    """Straggler delays are charged through the α–β model: the faulted
    run is strictly slower in simulated time, with identical labels."""
    g = make_graph("single_path", 2)
    A = g.to_matrix()
    clean = lacc_dist(A, LAPTOP, nodes=1)
    slow = lacc_dist(A, LAPTOP, nodes=1, faults=preset("stragglers", seed=4))
    assert same_partition(slow.labels, clean.labels)
    assert slow.simulated_seconds > clean.simulated_seconds
