"""Flight recorder: ring buffer, JSONL round-trip, coordinates, off switch."""

import json

import pytest

from repro.obs.flight import (
    NULL_FLIGHT,
    SCHEMA_VERSION,
    FlightEvent,
    FlightRecorder,
    NullFlightRecorder,
    read_flight_jsonl,
)
from repro.obs.tracer import activate, flight_recorder


def test_record_assigns_monotone_seq_and_coords():
    fr = FlightRecorder(run_id="r1")
    a = fr.record("iteration", iteration=1, active_vertices=10)
    b = fr.record("fault", rank=3, iteration=1, fault_kind="delay")
    assert b.seq == a.seq + 1
    assert a.kind == "iteration" and a.iteration == 1
    assert b.rank == 3 and b.data["fault_kind"] == "delay"
    # run_meta header is event 0
    assert fr.events[0].kind == "run_meta"
    assert fr.events[0].data["schema_version"] == SCHEMA_VERSION
    assert fr.events[0].data["run_id"] == "r1"


def test_ambient_coordinates_inherited_and_overridable():
    fr = FlightRecorder()
    fr.set_coords(iteration=4)
    inherited = fr.record("fault", fault_kind="delay")
    explicit = fr.record("fault", iteration=7, fault_kind="delay")
    assert inherited.iteration == 4
    assert explicit.iteration == 7


def test_ring_buffer_drops_but_counts():
    fr = FlightRecorder(capacity=8)
    for i in range(20):
        fr.record("iteration", iteration=i)
    assert len(fr) == 8
    assert fr.n_recorded == 21  # header + 20
    assert fr.dropped == 13
    # the survivors are the most recent events, in causal order
    seqs = [e.seq for e in fr.events]
    assert seqs == sorted(seqs) and seqs[-1] == 20


def test_anomalies_survive_ring_eviction():
    from repro.obs.anomaly import Anomaly

    fr = FlightRecorder(capacity=4)
    fr.record_anomaly(
        Anomaly(detector="test", severity="warning", message="early verdict")
    )
    for i in range(50):
        fr.record("iteration", iteration=i)
    assert not any(e.kind == "anomaly" for e in fr.events)  # evicted from ring
    kept = fr.anomalies()
    assert len(kept) == 1 and kept[0].data["message"] == "early verdict"


def test_record_anomaly_maps_coordinates():
    from repro.obs.anomaly import Anomaly

    fr = FlightRecorder()
    ev = fr.record_anomaly(
        Anomaly(
            detector="straggler",
            severity="warning",
            message="rank 3 slow",
            first_iteration=2,
            last_iteration=5,
            rank=3,
            step="starcheck",
            evidence=[7, 9],
        )
    )
    assert ev.kind == "anomaly"
    assert ev.rank == 3 and ev.iteration == 2 and ev.step == "starcheck"
    # payload keeps the verdict fields; coordinates live on the event
    assert ev.data["detector"] == "straggler"
    assert ev.data["evidence"] == [7, 9]
    assert "rank" not in ev.data and "step" not in ev.data


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "fr.jsonl")
    fr = FlightRecorder(run_id="rt", path=path, capacity=4)
    for i in range(12):
        fr.record("iteration", iteration=i, active_vertices=100 - i)
    fr.close()
    events = read_flight_jsonl(path)
    # the sink keeps everything the ring dropped
    assert len(events) == 13
    assert [e.seq for e in events] == list(range(13))
    assert events[0].kind == "run_meta"
    assert events[5].data["active_vertices"] == 96


def test_read_rejects_wrong_schema_version(tmp_path):
    path = tmp_path / "bad.jsonl"
    row = FlightEvent(0, 0.0, "run_meta", data={"schema_version": 999}).to_dict()
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(ValueError, match="schema_version"):
        read_flight_jsonl(str(path))


def test_read_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"seq": 0, "ts": 0.0, "kind": "x"}\nnot json\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        read_flight_jsonl(str(path))


def test_bind_clock_stamps_timestamps():
    t = [0.0]
    fr = FlightRecorder(clock=lambda: t[0])
    t[0] = 2.5
    ev = fr.record("iteration", iteration=1)
    assert ev.ts == 2.5
    fr.bind_clock(lambda: 9.0)
    assert fr.record("iteration", iteration=2).ts == 9.0


def test_detector_dispatch_writes_anomaly_events():
    from repro.obs.anomaly import Anomaly, AnomalyDetector

    class EveryFault(AnomalyDetector):
        name = "every_fault"

        def on_event(self, ev):
            if ev.kind != "fault":
                return []
            return [
                Anomaly(
                    detector=self.name,
                    severity="info",
                    message="saw a fault",
                    evidence=[ev.seq],
                )
            ]

    fr = FlightRecorder(detectors=[EveryFault()])
    fault = fr.record("fault", fault_kind="delay")
    assert len(fr.anomalies()) == 1
    anom = fr.anomalies()[0]
    assert anom.data["evidence"] == [fault.seq]


def test_finish_is_idempotent_and_flushes_detectors():
    from repro.obs.anomaly import Anomaly, AnomalyDetector

    class OnFinish(AnomalyDetector):
        name = "on_finish"

        def finish(self):
            return [Anomaly(detector=self.name, severity="info", message="end")]

    fr = FlightRecorder(detectors=[OnFinish()])
    first = fr.finish()
    assert len(first) == 1
    assert fr.finish() == []  # second flush is a no-op
    assert len(fr.anomalies()) == 1


def test_activation_nests_and_restores():
    assert flight_recorder() is NULL_FLIGHT
    outer, inner = FlightRecorder(), FlightRecorder()
    with activate(flight=outer):
        assert flight_recorder() is outer
        with activate(flight=inner):
            assert flight_recorder() is inner
        assert flight_recorder() is outer
    assert flight_recorder() is NULL_FLIGHT


def test_null_flight_is_falsy_and_absorbing():
    assert not NULL_FLIGHT
    assert isinstance(NULL_FLIGHT, NullFlightRecorder)
    assert NULL_FLIGHT.record("iteration", iteration=1) is None
    NULL_FLIGHT.set_coords(iteration=3)
    NULL_FLIGHT.bind_clock(lambda: 0.0)
    assert NULL_FLIGHT.finish() == []
    assert NULL_FLIGHT.events == [] and len(NULL_FLIGHT) == 0
    assert NULL_FLIGHT.n_recorded == 0 and NULL_FLIGHT.dropped == 0
    assert not NULL_FLIGHT.enabled


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


# -- merge_flight_events (the per-rank merge behind the proc backend) -----

def _rank_record(rank, calls):
    fr = FlightRecorder(run_id=f"rank-{rank}", clock=lambda: float(len(fr.events)))
    for c in range(calls):
        fr.record("collective", opcode="allgather", call=c + 1)
    return fr.events


def test_merge_stamps_rank_and_reassigns_dense_seq():
    from repro.obs.flight import merge_flight_events

    per_rank = {0: _rank_record(0, 2), 1: _rank_record(1, 2)}
    merged = merge_flight_events(per_rank)
    assert [ev.seq for ev in merged] == list(range(len(merged)))
    assert {ev.rank for ev in merged} == {0, 1}
    # per-rank causal order is preserved via origin_seq
    for r in (0, 1):
        origin = [ev.data["origin_seq"] for ev in merged if ev.rank == r]
        assert origin == sorted(origin)


def test_merge_ties_break_by_rank_deterministically():
    from repro.obs.flight import merge_flight_events

    per_rank = {1: _rank_record(1, 1), 0: _rank_record(0, 1)}
    merged = merge_flight_events(per_rank)
    # equal worker-clock timestamps interleave by rank id
    ts0 = [ev.rank for ev in merged if ev.ts == merged[0].ts]
    assert ts0 == sorted(ts0)


def test_merge_does_not_mutate_conductor_events():
    from repro.obs.flight import merge_flight_events

    fr = FlightRecorder(run_id="conductor")
    fr.record("iteration", iteration=1)
    original_seqs = [ev.seq for ev in fr.events]
    merged = merge_flight_events({0: _rank_record(0, 1)}, conductor=fr.events)
    assert [ev.seq for ev in fr.events] == original_seqs  # untouched
    assert [ev.seq for ev in merged] == list(range(len(merged)))
    conductor_rows = [ev for ev in merged if ev.data.get("run_id") == "conductor"
                      or ev.kind == "iteration"]
    assert any(ev.rank is None for ev in conductor_rows)
