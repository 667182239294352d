"""Exporter tests: Chrome trace_event schema validity, timestamp
monotonicity, matched B/E pairs, merging, and the flat span records."""

import json

import pytest

from repro.obs import (
    Tracer,
    chrome_trace,
    merge_chrome_traces,
    span_records,
    write_chrome_trace,
)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 0.5
        return self.t


@pytest.fixture()
def tracer():
    tr = Tracer(clock=FakeClock())
    with tr.span("run", "run", n=10):
        with tr.span("iteration", "iteration", iteration=1):
            with tr.span("cond_hook", "step"):
                with tr.span("mxv", "graphblas") as sp:
                    sp.add("flops", 42)
            with tr.span("shortcut", "step"):
                pass
    return tr


class TestChromeTrace:
    def test_round_trips_through_json(self, tracer, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        doc = json.load(open(path))
        assert "traceEvents" in doc and doc["displayTimeUnit"] == "ms"
        assert all({"name", "ph", "pid", "tid"} <= set(e) for e in doc["traceEvents"])

    def test_b_e_pairs_match(self, tracer):
        ev = chrome_trace(tracer)["traceEvents"]
        stack = []
        for e in ev:
            if e["ph"] == "B":
                stack.append(e["name"])
            elif e["ph"] == "E":
                assert stack.pop() == e["name"]
        assert stack == []
        assert sum(e["ph"] == "B" for e in ev) == 5

    def test_timestamps_monotone_and_rebased(self, tracer):
        ev = [e for e in chrome_trace(tracer)["traceEvents"] if e["ph"] != "M"]
        ts = [e["ts"] for e in ev]
        assert ts == sorted(ts)
        assert ts[0] == 0.0  # rebased to the first root
        assert all(t >= 0 for t in ts)

    def test_args_carry_attrs_and_counters(self, tracer):
        ev = chrome_trace(tracer)["traceEvents"]
        mxv_b = next(e for e in ev if e["name"] == "mxv" and e["ph"] == "B")
        assert mxv_b["args"]["flops"] == 42
        run_b = next(e for e in ev if e["name"] == "run" and e["ph"] == "B")
        assert run_b["args"]["n"] == 10

    def test_metadata_event_names_process(self, tracer):
        ev = chrome_trace(tracer, pid=7, process_name="sim nodes=7")["traceEvents"]
        meta = [e for e in ev if e["ph"] == "M"]
        assert len(meta) == 1
        assert meta[0]["args"]["name"] == "sim nodes=7"
        assert all(e["pid"] == 7 for e in ev)

    def test_open_spans_are_skipped(self):
        tr = Tracer(clock=FakeClock())
        with tr.span("closed"):
            pass
        tr.span("never_closed").__enter__()  # open root stays on the stack
        names = [e["name"] for e in chrome_trace(tr)["traceEvents"] if e["ph"] == "B"]
        assert names == ["closed"]

    def test_merge_keeps_pid_lanes(self, tracer):
        t1 = chrome_trace(tracer, pid=1, process_name="nodes=1")
        t4 = chrome_trace(tracer, pid=4, process_name="nodes=4")
        merged = merge_chrome_traces([t1, t4])
        pids = {e["pid"] for e in merged["traceEvents"]}
        assert pids == {1, 4}
        assert len(merged["traceEvents"]) == len(t1["traceEvents"]) * 2

    def test_timestamps_monotone_per_pid_tid(self, tracer):
        """Monotone ts within every (pid, tid) stream, metadata first —
        what strict pickier-than-Chrome parsers require."""
        doc = chrome_trace(tracer, pid=3)
        assert doc["traceEvents"][0]["ph"] == "M"
        lanes = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "M":
                continue
            lanes.setdefault((e["pid"], e["tid"]), []).append(e["ts"])
        assert lanes  # at least one real lane
        for key, ts in lanes.items():
            assert ts == sorted(ts), f"non-monotone ts in lane {key}"

    def test_sort_is_stable_at_equal_timestamps(self):
        """Zero-duration nesting must keep B-before-E order when sorted."""
        tr = Tracer(clock=lambda: 1.0)  # every span opens/closes at t=1
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        ev = [e for e in chrome_trace(tr)["traceEvents"] if e["ph"] != "M"]
        assert [(e["name"], e["ph"]) for e in ev] == [
            ("outer", "B"), ("inner", "B"), ("inner", "E"), ("outer", "E"),
        ]


class TestSpanRecords:
    def test_depth_first_records(self, tracer):
        recs = span_records(tracer)
        assert [r["name"] for r in recs] == [
            "run", "iteration", "cond_hook", "mxv", "shortcut",
        ]
        assert [r["depth"] for r in recs] == [0, 1, 2, 3, 2]
        assert recs[0]["t0"] == 0.0

    def test_durations_and_counters(self, tracer):
        recs = {r["name"]: r for r in span_records(tracer)}
        assert recs["mxv"]["counters"] == {"flops": 42}
        assert recs["run"]["seconds"] >= recs["iteration"]["seconds"]
        assert recs["cond_hook"]["self_seconds"] == pytest.approx(
            recs["cond_hook"]["seconds"] - recs["mxv"]["seconds"]
        )


class TestMultiLaneMerge:
    """The per-rank merge surface: shared base, pinned lane order,
    secondary thread lanes, and hostile-name escaping."""

    def _lane(self, pid, t0, **kw):
        clock = iter([t0, t0 + 0.25])
        tr = Tracer(clock=lambda: next(clock))
        with tr.span("work", "rank"):
            pass
        return chrome_trace(tr, pid=pid, process_name=f"rank {pid}",
                            base=0.0, **kw)

    def test_shared_base_keeps_one_time_origin(self):
        merged = merge_chrome_traces([self._lane(0, 1.0), self._lane(1, 2.0)])
        b = {e["pid"]: e["ts"] for e in merged["traceEvents"] if e["ph"] == "B"}
        # lane 1 starts one (simulated) second after lane 0, not at 0
        assert b[1] - b[0] == pytest.approx(1.0e6)

    def test_sort_index_pins_lane_order(self):
        doc = self._lane(3, 0.0, sort_index=-1)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        si = next(e for e in meta if e["name"] == "process_sort_index")
        assert si["args"]["sort_index"] == -1
        assert si["pid"] == 3

    def test_thread_name_labels_secondary_lane(self):
        doc = self._lane(2, 0.0, tid=1, thread_name="heartbeat")
        ev = doc["traceEvents"]
        tn = next(e for e in ev if e["ph"] == "M" and e["name"] == "thread_name")
        assert tn["args"]["name"] == "heartbeat" and tn["tid"] == 1
        assert all(e["tid"] == 1 for e in ev if e["ph"] in ("B", "E"))

    def test_merged_lanes_stay_monotone_per_pid_tid(self):
        lanes = [self._lane(r, 0.5 * r) for r in range(4)]
        merged = merge_chrome_traces(lanes)
        streams = {}
        for e in merged["traceEvents"]:
            if e["ph"] in ("B", "E"):
                streams.setdefault((e["pid"], e["tid"]), []).append(e["ts"])
        assert len(streams) == 4
        for key, ts in streams.items():
            assert ts == sorted(ts), f"non-monotone lane {key}"

    def test_hostile_names_survive_json_round_trip(self, tmp_path):
        """Span and process names with quotes, backslashes, newlines and
        non-ASCII must come back intact from the exported file."""
        evil = 'sp"an\\na<me> \n\t λ–rank'
        tr = Tracer(clock=FakeClock())
        with tr.span(evil, "step", note='q"uo\\te'):
            pass
        path = tmp_path / "evil.json"
        write_chrome_trace(
            chrome_trace(tr, pid=0, process_name='rank "0"\\'), str(path)
        )
        doc = json.load(open(path))
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "B"]
        assert names == [evil]
        b = next(e for e in doc["traceEvents"] if e["ph"] == "B")
        assert b["args"]["note"] == 'q"uo\\te'
        meta = next(e for e in doc["traceEvents"] if e["ph"] == "M")
        assert meta["args"]["name"] == 'rank "0"\\'
