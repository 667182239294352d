"""Flight recorder: append-only list, JSONL round-trip, coordinates, off switch."""

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


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "fr.jsonl")
    fr = FlightRecorder(run_id="rt", path=path)
    for i in range(12):
        fr.record("iteration", iteration=i, active_vertices=100 - i)
    fr.close()
    events = read_flight_jsonl(path)
    assert len(events) == len(fr) == 13
    assert [e.seq for e in events] == list(range(13))
    assert events[0].kind == "run_meta"
    assert events[5].data["active_vertices"] == 96


def test_read_rejects_wrong_schema_version(tmp_path):
    path = tmp_path / "bad.jsonl"
    row = FlightEvent(0, 0.0, "run_meta", data={"schema_version": 999}).to_dict()
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(ValueError, match="schema_version"):
        read_flight_jsonl(str(path))


def test_read_rejects_an_empty_record(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="empty flight record"):
        read_flight_jsonl(str(path))


def test_read_rejects_a_record_without_run_meta_header(tmp_path):
    path = tmp_path / "headless.jsonl"
    path.write_text('{"seq": 0, "ts": 0, "kind": "x"}\n')
    with pytest.raises(ValueError, match="not a flight record"):
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
