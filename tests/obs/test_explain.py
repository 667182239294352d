"""The ``repro explain`` engine end to end: diagnosis of synthetic
records, and the acceptance scenarios — a clean simulated run diagnoses
healthy, a stragglers-preset run names the straggler rank and the retry
storm with correct iteration ranges.  The runs are ``run_driver`` flight
records, diagnosed by replay."""

import pytest

from repro.graphs import corpus
from repro.obs.explain import RunDiagnosis, diagnose
from repro.obs.flight import FlightRecorder, read_flight_jsonl
from repro.runner import run_driver


@pytest.fixture(scope="module")
def archaea():
    return corpus.load("archaea")


def _replay(g, tmp_path, name="run", **kw):
    """``(report, events, diagnosis)`` of a recorded ``dist`` run
    (Edison, 16 nodes unless *kw* says otherwise, clean unless *kw* names
    a preset, no checkpoints)."""
    path = str(tmp_path / f"{name}.jsonl")
    kw = {"nodes": 16, "checkpoint_interval": 0, **kw}
    report = run_driver(g, driver="dist", backend="sim", record_path=path, **kw)
    events = read_flight_jsonl(path)
    return report, events, diagnose(events)


# -- diagnose() on synthetic records --------------------------------------

def _basic_record(fr):
    fr.record("run_start", driver="dist", graph="g", machine="Edison",
              nodes=4, ranks=16, preset=None, seed=None)
    for it in (1, 2, 3):
        fr.record("iteration", iteration=it, active_vertices=100 >> it)
    fr.record("run_end", n_iterations=3, n_components=7)


def test_diagnose_reads_run_envelope():
    fr = FlightRecorder(run_id="syn")
    _basic_record(fr)
    d = diagnose(fr.events)
    assert d.run_id == "syn" and d.driver == "dist"
    assert d.machine == "Edison" and d.nodes == 4 and d.ranks == 16
    assert d.n_iterations == 3 and d.n_components == 7
    assert d.completed and d.healthy and d.worst_severity is None
    assert "no anomalies" in d.render()


def test_diagnose_marks_truncated_record_incomplete():
    fr = FlightRecorder()
    fr.record("run_start", driver="dist", graph="g")
    fr.record("iteration", iteration=1, active_vertices=10)
    d = diagnose(fr.events)
    assert not d.completed and not d.healthy
    assert "run_end" in (d.error or "")
    assert "DID NOT COMPLETE" in d.render()


def test_diagnose_surfaces_run_end_error():
    fr = FlightRecorder()
    fr.record("run_start", driver="dist", graph="g")
    fr.record("run_end", error="alltoallv failed permanently")
    d = diagnose(fr.events)
    assert not d.completed
    assert "alltoallv" in d.error


def test_diagnose_collects_anomalies_with_coordinates():
    fr = FlightRecorder()
    _basic_record(fr)
    for it in (1, 2, 3):
        fr.record("fault", rank=3, iteration=it, fault_kind="delay",
                  collective="alltoallv")
    d = diagnose(fr.events)
    assert d.anomaly_classes() == ["straggler"]
    (a,) = d.anomalies
    assert a["rank"] == 3 and a["severity"] == "warning"
    assert (a["first_iteration"], a["last_iteration"]) == (1, 3)
    assert a["evidence"] == [6, 7, 8]
    assert d.worst_severity == "warning"
    assert "rank 3 is a persistent straggler" in d.render()


def test_diagnose_ignores_anomaly_rows_of_older_records():
    """Verdicts come from the events alone: an ``anomaly`` row an older
    recorder wrote neither adds a verdict nor hides one."""
    fr = FlightRecorder()
    _basic_record(fr)
    fr.record("anomaly", detector="straggler", severity="warning",
              message="stale verdict", evidence=[])
    d = diagnose(fr.events)
    assert d.healthy and d.anomalies == []


def test_worst_severity_ranks_critical_over_warning():
    d = RunDiagnosis(run_id="x", anomalies=[
        {"detector": "a", "severity": "warning", "message": "w"},
        {"detector": "b", "severity": "critical", "message": "c"},
        {"detector": "c", "severity": "info", "message": "i"},
    ])
    assert d.worst_severity == "critical"
    assert d.anomaly_classes() == ["a", "b", "c"]
    out = d.render()
    # critical listed first, with the loud marker
    assert out.index("!! [b]") < out.index(" ! [a]")


def test_to_dict_is_json_ready():
    import json

    fr = FlightRecorder(run_id="j")
    _basic_record(fr)
    d = diagnose(fr.events).to_dict()
    parsed = json.loads(json.dumps(d))
    assert parsed["run_id"] == "j" and parsed["healthy"] is True
    assert parsed["anomaly_classes"] == []


# -- the acceptance scenarios ---------------------------------------------

def test_clean_run_diagnoses_healthy(archaea, tmp_path):
    _, _, diag = _replay(archaea, tmp_path)
    assert diag.completed
    assert diag.anomalies == [], [a["message"] for a in diag.anomalies]
    assert diag.healthy
    assert diag.n_components == 3001
    assert diag.analytics is not None  # correlation source was available


def test_stragglers_preset_names_rank_and_retry_storm(archaea, tmp_path):
    _, events, diag = _replay(archaea, tmp_path, preset="stragglers", seed=0)
    assert diag.completed and not diag.healthy
    classes = set(diag.anomaly_classes())
    assert {"straggler", "retry_storm"} <= classes

    straggler = next(a for a in diag.anomalies if a["detector"] == "straggler")
    storm = next(a for a in diag.anomalies if a["detector"] == "retry_storm")

    # the straggler verdict names the deterministic victim rank and the
    # iteration span of the delays
    assert straggler["rank"] is not None
    assert f"rank {straggler['rank']}" in straggler["message"]
    assert straggler["first_iteration"] == 1
    assert straggler["last_iteration"] == diag.n_iterations

    # the retry storm covers a real iteration range and counts events
    assert storm["first_iteration"] >= 1
    assert storm["last_iteration"] <= diag.n_iterations
    assert storm["data"]["events"] >= 3
    assert "retry storm" in storm["message"]

    # evidence pointers resolve to fault events in the record
    by_seq = {e.seq: e for e in events}
    for seq in straggler["evidence"]:
        assert by_seq[seq].kind == "fault"
        assert by_seq[seq].rank == straggler["rank"]

    # analytics correlation attaches the delay attribution
    assert "correlation" in storm
    assert storm["correlation"]["delay_seconds"] > 0


def test_stragglers_diagnosis_is_deterministic(archaea, tmp_path):
    _, _, d1 = _replay(archaea, tmp_path, "a", preset="stragglers", seed=0)
    _, _, d2 = _replay(archaea, tmp_path, "b", preset="stragglers", seed=0)
    a1 = [dict(a, seq=None) for a in d1.anomalies]
    a2 = [dict(a, seq=None) for a in d2.anomalies]
    assert [a["message"] for a in a1] == [a["message"] for a in a2]
    assert [a["evidence"] for a in a1] == [a["evidence"] for a in a2]


def test_permanent_failure_becomes_diagnosis_not_traceback(archaea, tmp_path):
    report, events, diag = _replay(archaea, tmp_path, nodes=4,
                                   preset="permanent", seed=0,
                                   max_recoveries=0)
    assert report.error and report.ok  # failed loudly
    assert not diag.completed
    assert diag.error
    assert not diag.healthy
    # the record carries the collective_error evidence
    assert any(e.kind == "collective_error" for e in events)


def test_record_path_round_trips_through_replay(archaea, tmp_path):
    report, _, replayed = _replay(archaea, tmp_path, preset="stragglers",
                                  seed=0)
    assert sorted(replayed.anomaly_classes()) == report.anomaly_classes
    assert replayed.n_components == report.components
    assert replayed.n_iterations == report.iterations


#: the correlation of the live run's analytics (archaea, Edison, 16
#: nodes, ``stragglers`` seed 0, no checkpoints): a replay of its record
#: must carry exactly this
STRAGGLERS_CORRELATION = {
    "delay_seconds": 0.0023086936719101123,
    "note": "fault delays/retries cost 2.309 ms of model time (54.0% of "
            "the run), concentrated in 'starcheck'",
}


def test_replay_carries_the_run_correlation(archaea, tmp_path):
    _, _, diag = _replay(archaea, tmp_path, preset="stragglers", seed=0)
    got = {
        a["detector"]: {k: a["correlation"][k] for k in STRAGGLERS_CORRELATION}
        for a in diag.anomalies
    }
    assert got == {"retry_storm": STRAGGLERS_CORRELATION,
                   "straggler": STRAGGLERS_CORRELATION}
    assert "↳ fault delays/retries cost 2.309 ms" in diag.render()


def test_cut_record_is_judged_on_the_events_it_holds(archaea, tmp_path):
    """A stragglers record cut before its ``run_end`` (a crash, a killed
    conductor) still names the retry storm and the straggler: verdicts
    are drawn at replay, not written at close."""
    _, _, full = _replay(archaea, tmp_path, preset="stragglers", seed=0)
    lines = (tmp_path / "run.jsonl").read_text().splitlines(keepends=True)
    end = next(i for i, line in enumerate(lines) if '"kind": "run_end"' in line)
    (tmp_path / "cut.jsonl").write_text("".join(lines[:end]))
    cut = diagnose(read_flight_jsonl(str(tmp_path / "cut.jsonl")))
    assert not cut.completed and "run_end" in cut.error
    assert {"retry_storm", "straggler"} <= set(cut.anomaly_classes())
    # the verdict is the full record's, minus the analytics correlation
    # (the analytics row follows run_end, so the cut dropped it)
    straggler = next(a for a in full.anomalies if a["detector"] == "straggler")
    del straggler["correlation"]
    assert straggler in cut.anomalies
