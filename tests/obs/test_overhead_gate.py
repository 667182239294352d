"""Tier-1 overhead gate: disabled observability must stay (near) free.

The full-scale version of this check is ``benchmarks/check_tracing_
overhead.py`` (run by CI on a 65k-vertex RMAT graph and the Figure 8
driver).  This tier-1 copy runs the *same protocol* from
:mod:`repro.obs.overhead` at a scale small enough for the test suite,
with the same 5% relative budget; the absolute noise floor does most of
the guarding at this size, so what the gate really catches is gross
regressions — a null object that starts allocating per call, or a
disabled path routed through a real tracer or flight recorder.
"""

import numpy as np
import pytest

from repro.core import lacc
from repro.core.lacc_dist import lacc_dist
from repro.graphs.generators import rmat
from repro.mpisim import EDISON
from repro.obs import NullTracer, activate
from repro.obs.overhead import OverheadResult, measure_overhead

SCALE = 12  # 4096 vertices — a few ms per run
ROUNDS = 3
NOISE_FLOOR_S = 0.100  # generous: tier-1 runs on loaded CI workers


@pytest.fixture(scope="module")
def A():
    return rmat(SCALE, edge_factor=8, seed=7).to_matrix()


def test_nulltracer_overhead_within_budget(A):
    tracer = NullTracer()

    def probe():
        with activate(tracer):
            lacc(A, collect_stats=False)

    res = measure_overhead(
        baseline=lambda: lacc(A, collect_stats=False),
        probe=probe,
        name="nulltracer_lacc",
        rounds=ROUNDS,
        noise_floor_s=NOISE_FLOOR_S,
    )
    assert res.within_budget, res.summary()


def test_nulltracer_lacc_dist_overhead_within_budget(A):
    tracer = NullTracer()

    def probe():
        with activate(tracer):
            lacc_dist(A, EDISON, nodes=4)

    res = measure_overhead(
        baseline=lambda: lacc_dist(A, EDISON, nodes=4),
        probe=probe,
        name="nulltracer_lacc_dist",
        rounds=ROUNDS,
        noise_floor_s=NOISE_FLOOR_S,
    )
    assert res.within_budget, res.summary()


def test_nullflight_overhead_within_budget(A):
    from repro.obs.flight import NULL_FLIGHT

    def probe():
        with activate(flight=NULL_FLIGHT):
            lacc_dist(A, EDISON, nodes=4)

    res = measure_overhead(
        baseline=lambda: lacc_dist(A, EDISON, nodes=4),
        probe=probe,
        name="nullflight_lacc_dist",
        rounds=ROUNDS,
        noise_floor_s=NOISE_FLOOR_S,
    )
    assert res.within_budget, res.summary()


def test_measure_overhead_protocol():
    """The helper itself: interleaved rounds, best-of, budget arithmetic."""
    calls = []
    res = measure_overhead(
        baseline=lambda: calls.append("b"),
        probe=lambda: calls.append("p"),
        rounds=4,
        tolerance=0.05,
        noise_floor_s=0.01,
    )
    # warmup baseline + 4 interleaved (b, p) rounds
    assert calls == ["b"] + ["b", "p"] * 4
    assert len(res.baseline_times) == len(res.probe_times) == 4
    assert res.baseline_seconds == min(res.baseline_times)
    assert res.probe_seconds == min(res.probe_times)
    assert res.budget_seconds == pytest.approx(
        res.baseline_seconds * 1.05 + 0.01
    )
    assert res.within_budget
    d = res.to_dict()
    assert d["within_budget"] and d["rounds"] == 4


def test_overhead_result_flags_budget_breach():
    res = OverheadResult(
        name="x", rounds=1, tolerance=0.05, noise_floor_s=0.0,
        baseline_seconds=1.0, probe_seconds=1.2,
    )
    assert not res.within_budget
    assert res.overhead_fraction == pytest.approx(0.2)
    assert "OVER BUDGET" in res.summary()


def test_measure_overhead_rejects_zero_rounds():
    with pytest.raises(ValueError):
        measure_overhead(lambda: None, lambda: None, rounds=0)
