"""Anomaly detectors: each fires on its pathology and stays silent on
healthy telemetry (the zero-false-positive contract the CI clean-run
job enforces end to end)."""

import pytest

from repro.core.lacc import lacc
from repro.core.lacc_2d import lacc_2d
from repro.core.lacc_spmd import lacc_spmd
from repro.graphs import corpus
from repro.obs.anomaly import (
    Anomaly,
    CheckpointChurnDetector,
    ConvergenceStallDetector,
    LoadImbalanceDetector,
    RetryStormDetector,
    StragglerDetector,
    default_detectors,
)
from repro.obs.flight import FlightEvent, FlightRecorder
from repro.obs.tracer import activate


def ev(kind, seq=0, iteration=None, rank=None, step=None, **data):
    return FlightEvent(
        seq=seq, ts=float(seq), kind=kind, rank=rank,
        iteration=iteration, step=step, data=data,
    )


def drain(det, events):
    out = []
    for e in events:
        out.extend(det.on_event(e))
    out.extend(det.finish())
    return out


def test_anomaly_rejects_bad_severity():
    with pytest.raises(ValueError):
        Anomaly(detector="x", severity="catastrophic", message="no")


def test_anomaly_to_dict_round_trips_fields():
    a = Anomaly(
        detector="straggler", severity="warning", message="m",
        first_iteration=1, last_iteration=3, rank=2, step="shortcut",
        evidence=[4, 5], data={"k": 1},
    )
    d = a.to_dict()
    assert d["detector"] == "straggler" and d["evidence"] == [4, 5]
    assert d["first_iteration"] == 1 and d["rank"] == 2


# -- convergence stall ----------------------------------------------------

def _iterations(actives):
    return [
        ev("iteration", seq=i, iteration=i + 1, active_vertices=a)
        for i, a in enumerate(actives)
    ]


def test_stall_fires_on_flat_active_count():
    det = ConvergenceStallDetector(window=3, decay=0.9)
    out = drain(det, _iterations([1000, 990, 985, 980, 978]))
    assert len(out) == 1
    (a,) = out
    assert a.detector == "convergence_stall" and a.severity == "warning"
    assert (a.first_iteration, a.last_iteration) == (2, 5)
    assert len(a.evidence) == 4


def test_stall_silent_on_geometric_decay():
    # the Figure 7 shape: a constant fraction retires every iteration
    det = ConvergenceStallDetector(window=3, decay=0.9)
    assert drain(det, _iterations([1000, 600, 350, 200, 90, 10, 0])) == []


def test_stall_needs_window_consecutive_iterations():
    det = ConvergenceStallDetector(window=3, decay=0.9)
    # two stalled iterations, then healthy shrink resets the streak
    assert drain(det, _iterations([100, 99, 98, 50, 49, 20])) == []


def test_stall_ignores_iterations_without_active_counts():
    det = ConvergenceStallDetector(window=2)
    events = [ev("iteration", seq=i, iteration=i, hooks=3) for i in range(6)]
    assert drain(det, events) == []


# -- load imbalance -------------------------------------------------------

def _steps(lams, step="starcheck", requests=10000.0):
    return [
        ev("step", seq=i, iteration=i + 1, step=step, lam=lam,
           requests=requests, worst_rank=5)
        for i, lam in enumerate(lams)
    ]


def test_partition_imbalance_fires_from_run_start():
    det = LoadImbalanceDetector(partition_threshold=4.0)
    out = drain(det, [ev("run_start", partition_lambda=6.5,
                         partition_worst_rank=2)])
    assert len(out) == 1 and out[0].rank == 2
    assert "partition" in out[0].message


def test_partition_imbalance_silent_below_threshold():
    det = LoadImbalanceDetector(partition_threshold=4.0)
    assert drain(det, [ev("run_start", partition_lambda=1.3)]) == []


def test_step_spike_against_run_median_fires_and_merges():
    det = LoadImbalanceDetector(spike_factor=3.0, min_history=2)
    out = drain(det, _steps([2.0, 2.2, 2.1, 9.0, 11.0, 2.0]))
    assert len(out) == 1
    (a,) = out
    assert a.detector == "load_imbalance" and a.step == "starcheck"
    assert (a.first_iteration, a.last_iteration) == (4, 5)
    assert a.rank == 5 and a.data["lambda_max"] == 11.0
    assert len(a.evidence) == 2


def test_step_spike_silent_on_structural_skew():
    # the protein graphs route every iteration at λ ≈ 30 (Figure 3);
    # a steady high λ is not a spike
    det = LoadImbalanceDetector()
    assert drain(det, _steps([29.0, 31.0, 30.0, 32.0, 30.5])) == []


def test_low_volume_tail_never_spikes():
    # as the active set converges, residual requests make λ explode on
    # tiny volume — that is LACC finishing, not a hot spot
    det = LoadImbalanceDetector()
    events = _steps([1.2, 1.3], requests=20000.0) + [
        ev("step", seq=10 + i, iteration=3 + i, step="starcheck",
           lam=lam, requests=req, worst_rank=0)
        for i, (lam, req) in enumerate([(12.0, 200.0), (48.0, 8.0), (64.0, 4.0)])
    ]
    assert drain(det, events) == []


def test_step_spike_critical_when_extreme():
    det = LoadImbalanceDetector(spike_factor=3.0)
    out = drain(det, _steps([2.0, 2.0, 2.0, 20.0]))
    assert len(out) == 1 and out[0].severity == "critical"


# -- retry storm ----------------------------------------------------------

def _storm_events(iterations, per_iter=4, kind="fault"):
    events, seq = [], 0
    for it in iterations:
        for _ in range(per_iter):
            events.append(ev(kind, seq=seq, iteration=it,
                             collective="alltoallv", fault_kind="delay"))
            seq += 1
    return events


def test_retry_storm_fires_and_names_dominant_collective():
    det = RetryStormDetector(threshold=3)
    out = drain(det, _storm_events([1, 2, 3]))
    assert len(out) == 1
    (a,) = out
    assert a.detector == "retry_storm" and a.severity == "warning"
    assert (a.first_iteration, a.last_iteration) == (1, 3)
    assert "alltoallv" in a.message
    assert a.data["by_collective"] == {"alltoallv": 12}


def test_retry_storm_splits_non_consecutive_iterations():
    det = RetryStormDetector(threshold=3)
    out = drain(det, _storm_events([1, 2]) + _storm_events([6, 7]))
    assert len(out) == 2
    assert (out[0].first_iteration, out[0].last_iteration) == (1, 2)
    assert (out[1].first_iteration, out[1].last_iteration) == (6, 7)


def test_retry_storm_silent_below_threshold():
    det = RetryStormDetector(threshold=3)
    assert drain(det, _storm_events([1, 2, 3, 4], per_iter=2)) == []


def test_retry_storm_critical_on_permanent_failure():
    det = RetryStormDetector(threshold=3)
    events = _storm_events([1]) + [
        ev("collective_error", seq=99, iteration=1, collective="alltoallv",
           kinds=["fail"], attempts=4)
    ]
    out = drain(det, events)
    assert len(out) == 1 and out[0].severity == "critical"
    assert "permanent" in out[0].message


def test_retry_storm_counts_retransmissions():
    det = RetryStormDetector(threshold=3)
    events = _storm_events([1], per_iter=2) + [
        ev("retry", seq=50 + i, iteration=1, collective="allreduce",
           attempt=i + 1)
        for i in range(2)
    ]
    out = drain(det, events)
    assert len(out) == 1 and out[0].data["retries"] == 2


# -- straggler ------------------------------------------------------------

def test_straggler_fires_on_repeated_delays_one_rank():
    det = StragglerDetector(min_events=3)
    events = [
        ev("fault", seq=i, iteration=i + 1, rank=3, fault_kind="delay",
           delay_factor=4.0)
        for i in range(5)
    ]
    out = drain(det, events)
    assert len(out) == 1
    (a,) = out
    assert a.detector == "straggler" and a.rank == 3
    assert (a.first_iteration, a.last_iteration) == (1, 5)
    assert "rank 3" in a.message and "4" in a.message


def test_straggler_silent_on_scattered_delays():
    det = StragglerDetector(min_events=3)
    events = [
        ev("fault", seq=i, iteration=i, rank=i, fault_kind="delay")
        for i in range(6)  # one delay per rank: jitter, not a straggler
    ]
    assert drain(det, events) == []


def test_straggler_ignores_non_delay_faults():
    det = StragglerDetector(min_events=2)
    events = [
        ev("fault", seq=i, iteration=i, rank=1, fault_kind="fail")
        for i in range(5)
    ]
    assert drain(det, events) == []


# -- checkpoint churn -----------------------------------------------------

def test_churn_fires_on_recovery_loop_without_progress():
    det = CheckpointChurnDetector(loop_threshold=2)
    events = [
        ev("recovery", seq=i, iteration=4, action="rollback")
        for i in range(3)
    ]
    out = drain(det, events)
    assert len(out) == 1
    assert out[0].detector == "checkpoint_churn"
    assert "without progress" in out[0].message


def test_churn_silent_when_recoveries_make_progress():
    det = CheckpointChurnDetector(loop_threshold=2)
    events = [
        ev("recovery", seq=i, iteration=2 * i + 2, action="rollback")
        for i in range(3)  # each recovery lands further along
    ]
    assert drain(det, events) == []


def test_churn_fires_on_repeated_recheckpointing():
    det = CheckpointChurnDetector(rewrite_threshold=2)
    events = [
        ev("checkpoint", seq=i, iteration=3, words=10.0) for i in range(3)
    ]
    out = drain(det, events)
    assert len(out) == 1 and "re-checkpointed" in out[0].message


def test_churn_degrade_is_immediately_critical():
    det = CheckpointChurnDetector()
    out = det.on_event(ev("recovery", seq=1, iteration=5, action="degrade"))
    assert len(out) == 1 and out[0].severity == "critical"


def test_churn_silent_on_normal_checkpointing():
    det = CheckpointChurnDetector()
    events = [
        ev("checkpoint", seq=i, iteration=i, words=10.0) for i in range(6)
    ]
    assert drain(det, events) == []


# -- the default set ------------------------------------------------------

def test_default_detectors_fresh_instances_and_distinct_names():
    a, b = default_detectors(), default_detectors()
    assert len(a) == 7
    assert all(x is not y for x, y in zip(a, b))
    names = [d.name for d in a]
    assert len(set(names)) == 7
    assert "convergence_stall" in names and "retry_storm" in names
    assert "rank_lost" in names and "shrink_recovery" in names


# -- the drivers' own records ---------------------------------------------

UNSCOPED_RUNS = {
    "serial-unscoped": lambda g: lacc(g.to_matrix(), use_sparsity=False),
    "spmd-r2": lambda g: lacc_spmd(g, ranks=2),
    "2d-r4": lambda g: lacc_2d(g, ranks=4),
}


@pytest.mark.parametrize("run", sorted(UNSCOPED_RUNS))
def test_unscoped_runs_raise_no_convergence_stall(run):
    """A loop without a Lemma-1 active set keeps every vertex in scope, so
    a constant active count says nothing about convergence: its
    ``iteration`` events leave the count out, and the stall detector has
    nothing to misread."""
    fr = FlightRecorder(detectors=default_detectors())
    with activate(flight=fr):
        UNSCOPED_RUNS[run](corpus.load("archaea"))
    fr.finish()
    assert fr.find("iteration")
    assert [a for a in fr.anomalies()
            if a.data["detector"] == "convergence_stall"] == []
