"""Anomaly detectors: each fires on its fault and stays silent on
healthy telemetry — pinned end to end by a fault-free run of every
corpus graph under every driver, and by a ``permanent``-preset run."""

import pytest

from repro.chaos import chaos_run
from repro.core.drivers import DRIVERS
from repro.core.lacc import lacc
from repro.core.lacc_2d import lacc_2d
from repro.core.lacc_spmd import lacc_spmd
from repro.graphs import corpus
from repro.mpisim import backend
from repro.obs.anomaly import (
    Anomaly,
    CheckpointChurnDetector,
    RetryStormDetector,
    StragglerDetector,
    default_detectors,
)
from repro.obs.flight import FlightEvent, FlightRecorder, read_flight_jsonl
from repro.obs.tracer import activate


def ev(kind, seq=0, iteration=None, rank=None, **data):
    return FlightEvent(
        seq=seq, ts=float(seq), kind=kind, rank=rank,
        iteration=iteration, data=data,
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


def test_churn_degrade_is_immediately_critical():
    det = CheckpointChurnDetector()
    out = det.on_event(ev("recovery", seq=1, iteration=7, action="degrade",
                          from_iteration=5))
    assert len(out) == 1 and out[0].severity == "critical"
    assert out[0].message.endswith("serial replay from iteration 5")


def test_churn_silent_on_normal_checkpointing():
    det = CheckpointChurnDetector()
    events = [
        ev("checkpoint", seq=i, iteration=i, words=10.0) for i in range(6)
    ]
    assert drain(det, events) == []


# -- the default set ------------------------------------------------------

def test_default_detectors_fresh_instances_and_distinct_names():
    a, b = default_detectors(), default_detectors()
    assert len(a) == 5
    assert all(x is not y for x, y in zip(a, b))
    names = [d.name for d in a]
    assert len(set(names)) == 5
    assert "retry_storm" in names and "checkpoint_churn" in names
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
    ``iteration`` events leave the count out, and the run raises no
    anomaly of any kind."""
    fr = FlightRecorder(detectors=default_detectors())
    with activate(flight=fr):
        UNSCOPED_RUNS[run](corpus.load("archaea"))
    fr.finish()
    iterations = fr.find("iteration")
    assert iterations
    assert all("active_vertices" not in e.data for e in iterations)
    assert fr.anomalies() == []


# -- end to end -----------------------------------------------------------

@pytest.mark.parametrize("name", corpus.names())
def test_clean_corpus_runs_raise_no_anomalies(name):
    """A fault-free run is silent under every driver: LACC's own structure
    (the Figure 7 decay of the active set, the Figure 3 owner skew) is no
    anomaly."""
    g = corpus.load(name)
    raised = {}
    for driver in sorted(DRIVERS):
        args, kw = DRIVERS[driver].call(g, ranks=4, nodes=16)
        fr = FlightRecorder(detectors=default_detectors())
        with activate(flight=fr), backend.use("sim"):
            DRIVERS[driver].fn(*args, **kw)
        fr.finish()
        assert fr.find("iteration"), driver
        raised[driver] = [a.data["message"] for a in fr.anomalies()]
    assert raised == {driver: [] for driver in DRIVERS}


def test_permanent_preset_exhausts_the_budget(tmp_path):
    """Under ``permanent`` every attempt fails at iteration 1: the
    supervisor loops without progress, then degrades.  The degrade row is
    written before the serial replay, and its verdict names where that
    replay started — here from scratch, as the row's own detail says."""
    path = tmp_path / "perm.jsonl"
    report = chaos_run(corpus.load("archaea"), driver="spmd",
                       preset="permanent", seed=0, backend="sim",
                       record_path=str(path))
    assert report.degraded and report.oracle_ok and not report.resumed
    events = read_flight_jsonl(str(path))
    degrade = next(e for e in events if e.kind == "recovery"
                   and e.data["action"] == "degrade")
    replay = next(e for e in events if e.kind == "run_start"
                  and e.data["driver"] == "serial")
    assert degrade.seq < replay.seq
    assert degrade.data["detail"] == "serial replay from scratch"
    churn = sorted(e.data["message"] for e in events if e.kind == "anomaly"
                   and e.data["detector"] == "checkpoint_churn")
    assert churn == [
        "recovery budget exhausted: run degraded to serial replay from "
        "scratch",
        "recovery loop: 5 repair/rollback actions without progress past "
        "iteration 1",
    ]
