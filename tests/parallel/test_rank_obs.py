"""Per-rank observability on the real-process backend.

Contracts under test (see docs/OBSERVABILITY.md, "Per-rank
observability"):

* **Null path** — with rank obs off (the default) a pool allocates no
  sideband at all, and instrumented pools are cached separately from
  null ones.
* **Round trip** — every worker's tracer/metrics/flight record comes
  home over the sideband, collectives carry the conductor-stamped
  iteration/step coordinates, and the exchange is attributed into
  ``ring_send``/``ring_recv`` children.
* **Clock alignment** — handshake-measured offsets put every rank's
  spans on the conductor's monotonic timeline; the merged Chrome trace
  has one pid lane per rank with monotone timestamps.
* **Determinism** — same-input runs produce byte-identical per-rank
  flight records (the worker flight clock is the collective counter,
  not wall time).
* **Salvage** — a SIGKILLed rank's eagerly-shipped flight events
  survive into the conductor's record as ``rank_event`` rows, and the
  survivors' transport counters still merge
  (``proccomm_ranks_unmerged`` counts only the unreachable ranks).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.faults import CollectiveError
from repro.mpisim import backend
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricRegistry
from repro.obs.tracer import activate
from repro.parallel import ProcComm, get_pool, shutdown_pools
from repro.parallel.obsband import (
    collect_rank_obs,
    enable_rank_obs,
    rank_obs_enabled,
)


def _two_collectives(size=2):
    """One allreduce + one alltoallv on real processes."""
    comm = ProcComm(size)
    chunks = [np.arange(8, dtype=np.int64) + r for r in range(size)]
    comm.allreduce(chunks, op=np.add)
    comm.alltoallv([[c] * size for c in chunks])
    return comm


def teardown_module():
    shutdown_pools()


# ----------------------------------------------------------------------
# null path
# ----------------------------------------------------------------------
class TestNullPath:
    def test_rank_obs_defaults_off(self):
        assert not rank_obs_enabled()

    def test_obs_off_pool_has_no_sideband(self):
        pool = get_pool(2)
        assert pool.obsband is None
        assert pool.clock_offsets == {}

    def test_obs_pools_cached_separately(self):
        plain = get_pool(2)
        with enable_rank_obs():
            traced = get_pool(2)
            assert traced is not plain
            assert traced.obsband is not None
            # cache is stable within the obs scope
            assert get_pool(2) is traced
        assert get_pool(2) is plain

    def test_collect_refuses_null_pool(self):
        with pytest.raises(ValueError, match="sideband"):
            collect_rank_obs(get_pool(2))


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def _collect(self, size=2):
        with enable_rank_obs():
            _two_collectives(size)
            return collect_rank_obs(get_pool(size), merge_registry=False)

    def test_every_rank_reports(self):
        obs = self._collect()
        assert sorted(obs.tracers) == [0, 1]
        assert sorted(obs.flight_events) == [0, 1]
        assert obs.truncated == []

    def test_collective_spans_with_exchange_children(self):
        obs = self._collect()
        for r in (0, 1):
            names = [sp.name for sp in obs.tracers[r].find(cat="collective")]
            assert names == ["allreduce", "alltoallv"]
            exchange = obs.tracers[r].find("alltoallv", "collective")[0]
            kids = {c.name for c in exchange.children}
            assert kids & {"ring_send", "ring_recv"}
            recv_bytes = sum(
                c.counters.get("bytes", 0)
                for c in exchange.children
                if c.name == "ring_recv"
            )
            assert recv_bytes > 0

    def test_clock_offsets_measured_and_small(self):
        obs = self._collect()
        assert sorted(obs.offsets) == [0, 1]
        # same host, same CLOCK_MONOTONIC: sub-100ms by a huge margin
        assert all(abs(o) < 0.1 for o in obs.offsets.values())

    def test_flight_record_shape(self):
        obs = self._collect()
        kinds = [ev.kind for ev in obs.flight_events[0]]
        assert kinds == [
            "run_meta",
            "worker_start",
            "collective",
            "collective",
            "worker_finalize",
        ]
        coll = [ev for ev in obs.flight_events[1] if ev.kind == "collective"]
        assert [ev.data["opcode"] for ev in coll] == ["allreduce", "alltoallv"]
        assert all(ev.rank == 1 for ev in coll)

    def test_worker_metrics_merge_with_rank_label(self):
        reg = MetricRegistry()
        with activate(metrics=reg), enable_rank_obs():
            _two_collectives(2)
            collect_rank_obs(get_pool(2))
        for r in ("0", "1"):
            n = reg.value("rank_collectives_total", op="alltoallv", rank=r)
            assert n == 1

    def test_second_run_starts_from_zero(self):
        """finalize resets the worker instruments: a cached pool must not
        leak one run's spans or calls into the next run's record."""
        first = self._collect()
        second = self._collect()
        for obs in (first, second):
            assert [ev.kind for ev in obs.flight_events[0]][-1] == "worker_finalize"
            assert len(obs.tracers[0].find(cat="collective")) == 2
        c1 = [ev for ev in first.flight_events[0] if ev.kind == "collective"]
        c2 = [ev for ev in second.flight_events[0] if ev.kind == "collective"]
        assert [ev.data["call"] for ev in c1] == [1, 2]
        assert [ev.data["call"] for ev in c2] == [1, 2]

    def test_flight_records_byte_identical_across_runs(self):
        blobs = []
        for _ in range(2):
            obs = self._collect()
            blobs.append(
                json.dumps(
                    {r: [ev.to_dict() for ev in evs]
                     for r, evs in sorted(obs.flight_events.items())},
                    sort_keys=True,
                )
            )
        assert blobs[0] == blobs[1]


# ----------------------------------------------------------------------
# merged views
# ----------------------------------------------------------------------
class TestMergedViews:
    def _obs(self, size=3):
        with enable_rank_obs():
            _two_collectives(size)
            return collect_rank_obs(get_pool(size), merge_registry=False)

    def test_one_pid_lane_per_rank(self):
        obs = self._obs(3)
        trace = obs.merged_trace()
        ev = trace["traceEvents"]
        lanes = {e["pid"]: e["args"]["name"] for e in ev
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert {p: n for p, n in lanes.items() if p < 3} == {
            0: "rank 0", 1: "rank 1", 2: "rank 2"
        }

    def test_conductor_lane_rides_along(self):
        from repro.obs.tracer import Tracer
        import time as _time

        tr = Tracer(clock=_time.monotonic)
        with tr.span("conduct", "test"):
            pass
        obs = self._obs(2)
        ev = obs.merged_trace(conductor=tr)["traceEvents"]
        names = {e["args"]["name"] for e in ev
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert "conductor" in names

    def test_timestamps_monotone_per_lane_after_alignment(self):
        obs = self._obs(3)
        ev = obs.merged_trace()["traceEvents"]
        lanes = {}
        for e in ev:
            if e["ph"] in ("B", "E"):
                lanes.setdefault((e["pid"], e["tid"]), []).append(e["ts"])
        assert lanes  # at least one span lane per rank
        for key, ts in lanes.items():
            assert ts == sorted(ts), f"non-monotone lane {key}"
        assert min(t for tss in lanes.values() for t in tss) == 0.0

    def test_merged_flight_interleaves_with_rank_coords(self):
        obs = self._obs(2)
        merged = obs.merged_flight()
        assert {ev.rank for ev in merged} == {0, 1}
        assert [ev.seq for ev in merged] == list(range(len(merged)))
        # per-rank causal order survives the interleave
        for r in (0, 1):
            mine = [ev for ev in merged if ev.rank == r]
            calls = [ev.data["call"] for ev in mine if ev.kind == "collective"]
            assert calls == sorted(calls)


# ----------------------------------------------------------------------
# death: salvage + partial metric merge
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_survivor_metrics_merge_dead_rank_counted(self):
        """Satellite contract: one dead worker must not void the whole
        stats round — survivors merge, the unreachable rank is counted in
        ``proccomm_ranks_unmerged``."""
        reg = MetricRegistry()
        with activate(metrics=reg):
            comm = ProcComm(3)
            send = [[np.arange(4, dtype=np.int64)] * 3] * 3
            comm.alltoallv(send)  # workers idle at cmd_wait afterwards
            pool = comm._pool
            pool.procs[1].kill()
            pool.procs[1].join(timeout=10)
            with pytest.raises(CollectiveError):
                comm.alltoallv(send)
        assert reg.value("proccomm_ranks_unmerged", rank="1") >= 1
        # the survivors' counters made it home before teardown
        for r in ("0", "2"):
            assert reg.value("proc_rank_bytes_sent", rank=r) > 0
        shutdown_pools()

    def test_killed_rank_flight_events_salvaged(self):
        """A dead rank's eagerly-shipped flight events surface in the
        conductor record as ``rank_event`` rows with ``salvaged=True`` —
        the chaos-postmortem acceptance criterion."""
        fr = FlightRecorder()
        with activate(flight=fr), enable_rank_obs():
            comm = ProcComm(3)
            send = [[np.arange(4, dtype=np.int64)] * 3] * 3
            comm.alltoallv(send)
            pool = comm._pool
            pool.procs[2].kill()
            pool.procs[2].join(timeout=10)
            with pytest.raises(CollectiveError):
                comm.alltoallv(send)
        salvaged = [
            ev for ev in fr.events
            if ev.kind == "rank_event" and ev.data.get("salvaged")
        ]
        dead = [ev for ev in salvaged if ev.rank == 2]
        assert dead, "the killed rank's record must survive"
        kinds = {ev.data["rank_kind"] for ev in dead}
        assert "collective" in kinds  # its last collective made it out
        assert any(
            ev.data.get("opcode") == "alltoallv" for ev in dead
        )
        shutdown_pools()


# ----------------------------------------------------------------------
# end to end: the spmd driver under full per-rank obs
# ----------------------------------------------------------------------
class TestEndToEnd:
    def test_trace_lacc_proc_merges_everything(self, tmp_path):
        from repro.graphs import path_graph
        from repro.obs.analytics import analyze_proc
        from repro.obs.explain import diagnose
        from repro.obs.flight import read_flight_jsonl
        from repro.obs.profile import trace_lacc_proc

        g = path_graph(120)
        path = str(tmp_path / "fl.jsonl")
        res, tracer, obs = trace_lacc_proc(g, ranks=2, flight_path=path)
        assert res.n_components == 1
        assert sorted(obs.tracers) == [0, 1]

        # collectives carry the conductor-stamped step coordinates
        steps = {
            sp.attrs.get("step")
            for tr in obs.tracers.values()
            for sp in tr.find(cat="collective")
        }
        assert steps & {"starcheck", "cond_hook", "uncond_hook", "shortcut",
                        "convergence"}

        # measured analytics: λ and an exact compute/comm/wait split
        rep = analyze_proc(obs, n_iterations=res.n_iterations)
        assert rep.source == "measured-proc"
        assert rep.ranks == 2
        assert all(s.lam >= 1.0 for s in rep.steps)
        for ph in rep.phases:
            parts = ph.compute_seconds + ph.comm_seconds + ph.delay_seconds
            assert parts <= ph.seconds * 1.001
        assert "measured" in rep.render()

        # merged chrome trace: conductor + one lane per rank
        ev = obs.merged_trace(conductor=tracer)["traceEvents"]
        pids = {e["pid"] for e in ev}
        assert {0, 1, 2} <= pids

        # the JSONL sink got the conductor record + folded rank events
        events = read_flight_jsonl(path)
        assert any(ev.kind == "rank_event" for ev in events)
        diag = diagnose(events)
        assert diag.healthy
        assert diag.n_dropped == 0
        shutdown_pools()
