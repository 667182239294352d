"""Anomaly detectors: each fires on its fault and stays silent on
healthy telemetry — pinned end to end by a fault-free run of every
corpus graph under every driver, and by a ``permanent``-preset run."""

import pytest

from repro.core.drivers import DRIVERS
from repro.core.lacc import lacc
from repro.core.lacc_2d import lacc_2d
from repro.core.lacc_spmd import lacc_spmd
from repro.graphs import corpus
from repro.mpisim import backend
from repro.obs.anomaly import (
    Anomaly,
    checkpoint_churn,
    detect,
    rank_lost,
    retry_storm,
    shrink_recovery,
    straggler,
)
from repro.obs.flight import FlightEvent, FlightRecorder, read_flight_jsonl
from repro.obs.tracer import activate
from repro.runner import run_driver


def ev(kind, seq=0, iteration=None, rank=None, **data):
    return FlightEvent(
        seq=seq, ts=float(seq), kind=kind, rank=rank,
        iteration=iteration, data=data,
    )


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
    out = retry_storm(_storm_events([1, 2, 3]))
    assert len(out) == 1
    (a,) = out
    assert a.detector == "retry_storm" and a.severity == "warning"
    assert (a.first_iteration, a.last_iteration) == (1, 3)
    assert "alltoallv" in a.message
    assert a.data["by_collective"] == {"alltoallv": 12}


def test_retry_storm_splits_non_consecutive_iterations():
    out = retry_storm(_storm_events([1, 2]) + _storm_events([6, 7]))
    assert len(out) == 2
    assert (out[0].first_iteration, out[0].last_iteration) == (1, 2)
    assert (out[1].first_iteration, out[1].last_iteration) == (6, 7)


def test_retry_storm_silent_below_threshold():
    assert retry_storm(_storm_events([1, 2, 3, 4], per_iter=2)) == []


def test_retry_storm_critical_on_permanent_failure():
    events = _storm_events([1]) + [
        ev("collective_error", seq=99, iteration=1, collective="alltoallv",
           kinds=["fail"], attempts=4)
    ]
    out = retry_storm(events)
    assert len(out) == 1 and out[0].severity == "critical"
    assert "permanent" in out[0].message


def test_retry_storm_counts_retransmissions():
    events = _storm_events([1], per_iter=2) + [
        ev("retry", seq=50 + i, iteration=1, collective="allreduce",
           attempt=i + 1)
        for i in range(2)
    ]
    out = retry_storm(events)
    assert len(out) == 1 and out[0].data["retries"] == 2


def test_retry_storm_groups_consecutive_events_of_one_iteration():
    """Groups are runs of equal iteration in record order: a stormy
    group that goes back an iteration (a rollback) extends the storm, a
    quiet group ends it, and a repeat of an iteration after another one
    is a group of its own."""
    back = retry_storm(_storm_events([3, 1]))
    assert [(a.first_iteration, a.last_iteration) for a in back] == [(3, 1)]
    assert back[0].message.startswith("iterations 3–1: retry storm")
    split = retry_storm(_storm_events([1]) + _storm_events([2], per_iter=2)
                        + _storm_events([3]))
    assert [(a.first_iteration, a.last_iteration) for a in split] == [
        (1, 1), (3, 3)]
    # 2 + 2 events of iteration 1 around one of iteration 2: no group of 3
    interleaved = (_storm_events([1], per_iter=2)
                   + _storm_events([2], per_iter=1)
                   + _storm_events([1], per_iter=2))
    assert retry_storm(interleaved) == []


# -- straggler ------------------------------------------------------------

def test_straggler_fires_on_repeated_delays_one_rank():
    events = [
        ev("fault", seq=i, iteration=i + 1, rank=3, fault_kind="delay",
           delay_factor=4.0)
        for i in range(5)
    ]
    out = straggler(events)
    assert len(out) == 1
    (a,) = out
    assert a.detector == "straggler" and a.rank == 3
    assert (a.first_iteration, a.last_iteration) == (1, 5)
    assert "rank 3" in a.message and "4" in a.message


def test_straggler_silent_on_scattered_delays():
    events = [
        ev("fault", seq=i, iteration=i, rank=i, fault_kind="delay")
        for i in range(6)  # one delay per rank: jitter, not a straggler
    ]
    assert straggler(events) == []


def test_straggler_ignores_non_delay_faults():
    events = [
        ev("fault", seq=i, iteration=i, rank=1, fault_kind="fail")
        for i in range(5)
    ]
    assert straggler(events) == []


# -- checkpoint churn -----------------------------------------------------

def test_churn_fires_on_recovery_loop_without_progress():
    events = [
        ev("recovery", seq=i, iteration=4, action="rollback")
        for i in range(3)
    ]
    out = checkpoint_churn(events)
    assert len(out) == 1
    assert out[0].detector == "checkpoint_churn"
    assert "without progress" in out[0].message


def test_churn_silent_when_recoveries_make_progress():
    events = [
        ev("recovery", seq=i, iteration=2 * i + 2, action="rollback")
        for i in range(3)  # each recovery lands further along
    ]
    assert checkpoint_churn(events) == []


def test_churn_degrade_is_immediately_critical():
    out = checkpoint_churn([ev("recovery", seq=1, iteration=7,
                               action="degrade", from_iteration=5)])
    assert len(out) == 1 and out[0].severity == "critical"
    assert out[0].message.endswith("serial replay from iteration 5")


def test_churn_silent_on_normal_checkpointing():
    events = [
        ev("checkpoint", seq=i, iteration=i, words=10.0) for i in range(6)
    ]
    assert checkpoint_churn(events) == []


# -- rank loss and shrink -------------------------------------------------

def test_rank_lost_merges_repeated_losses_of_one_rank():
    events = [
        ev("rank_lost", seq=0, iteration=2, rank=2, collective="allgather"),
        ev("rank_lost", seq=1, iteration=1, rank=1, collective="allreduce"),
        ev("rank_lost", seq=2, iteration=4, rank=2, collective="alltoallv"),
    ]
    out = rank_lost(events)
    assert [(a.rank, a.severity, a.message) for a in out] == [
        (1, "critical", "rank 1 permanently lost during allreduce"),
        (2, "critical",
         "rank 2 permanently lost (2× , during allgather, alltoallv)"),
    ]
    assert (out[1].first_iteration, out[1].last_iteration) == (2, 4)
    assert out[1].evidence == [0, 2]


def test_shrink_recovery_names_old_and_new_ranks():
    (a,) = shrink_recovery([
        ev("recovery", seq=5, iteration=2, action="shrink", old_ranks=4,
           new_ranks=3, lost_ranks=[1]),
        ev("recovery", seq=6, iteration=2, action="rollback"),
    ])
    assert a.severity == "warning" and a.evidence == [5]
    assert a.message == ("shrink-to-survivors: re-partitioned 4→3 ranks "
                         "at iteration 2")
    assert a.data["lost_ranks"] == [1]


# -- the one entry point -------------------------------------------------

def test_detect_orders_every_detector_by_first_evidence():
    """One record carrying each detector's fault: detect() returns one
    verdict per detector, ordered by the seq of its first evidence — not
    by the order the detectors run in."""
    events = [
        ev("rank_lost", seq=0, iteration=1, rank=2, collective="allgather"),
        ev("recovery", seq=1, iteration=1, action="shrink", old_ranks=4,
           new_ranks=3, lost_ranks=[2]),
        ev("recovery", seq=2, iteration=1, action="rollback"),
        ev("recovery", seq=3, iteration=1, action="rollback"),
        *[ev("fault", seq=4 + i, iteration=2, rank=1, fault_kind="delay",
             collective="alltoallv") for i in range(3)],
    ]
    out = detect(events)
    assert [a.detector for a in out] == [
        "rank_lost", "shrink_recovery", "checkpoint_churn", "retry_storm",
        "straggler",
    ]
    assert [a.evidence[0] for a in out] == [0, 1, 2, 4, 4]


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
    fr = FlightRecorder()
    with activate(flight=fr):
        UNSCOPED_RUNS[run](corpus.load("archaea"))
    iterations = fr.find("iteration")
    assert iterations
    assert all("active_vertices" not in e.data for e in iterations)
    assert detect(fr.events) == []


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
        fr = FlightRecorder()
        with activate(flight=fr), backend.use("sim"):
            DRIVERS[driver].fn(*args, **kw)
        assert fr.find("iteration"), driver
        raised[driver] = [a.message for a in detect(fr.events)]
    assert raised == {driver: [] for driver in DRIVERS}


def test_permanent_preset_exhausts_the_budget(tmp_path):
    """Under ``permanent`` every attempt fails at iteration 1: the
    supervisor loops without progress, then degrades.  The degrade row is
    written before the serial replay, and its verdict names where that
    replay started — here from scratch, as the row's own detail says."""
    path = tmp_path / "perm.jsonl"
    report = run_driver(corpus.load("archaea"), driver="spmd",
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
    churn = sorted(a.message for a in detect(events)
                   if a.detector == "checkpoint_churn")
    assert churn == [
        "recovery budget exhausted: run degraded to serial replay from "
        "scratch",
        "recovery loop: 5 repair/rollback actions without progress past "
        "iteration 1",
    ]
