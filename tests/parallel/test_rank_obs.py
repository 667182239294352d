"""Per-rank observability on the real-process backend.

Contracts under test (see docs/OBSERVABILITY.md, "Per-rank
observability"):

* **Null path** — with rank obs off (the default) a pool's workers
  build no obs instruments, instrumented pools are cached separately
  from null ones, and either kind allocates only the data fabric.
* **Round trip** — every worker's tracer and flight record come home
  as obs frames on the data fabric, collectives carry the
  conductor-stamped iteration/step coordinates, and the exchange is
  attributed into ``ring_send``/``ring_recv`` children.
* **One clock** — workers and conductor trace on the system-wide
  ``time.monotonic()``; the merged Chrome trace has one pid lane per
  rank with monotone timestamps.
* **Determinism** — same-input runs produce byte-identical per-rank
  flight records (the worker flight clock is the collective counter,
  not wall time).
* **Salvage** — a SIGKILLed rank's eagerly-shipped flight events
  survive into the conductor's record as ``rank_event`` rows.
* **Profiling costs no relay frames** — a traced ``run_driver`` sends
  the workers no more frames than the same run with rank obs alone,
  apart from the one collection command per worker.
* **Every observer on proc** — ``repro run`` writes each observer's
  output for the spmd and 2d drivers on real processes, clean and under
  faults.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import numpy as np
import pytest

from repro.faults import CollectiveError
from repro.mpisim import backend
from repro.obs.flight import FlightRecorder
from repro.obs.tracer import activate
from repro.parallel import ProcComm, WorkerPool, get_pool, shutdown_pools
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
        """No obs side channel of any kind: obs-off workers build no
        instruments and send no obs frame."""
        pool = get_pool(2)
        assert not pool.obs

    def test_obs_pools_cached_separately(self):
        plain = get_pool(2)
        with enable_rank_obs():
            traced = get_pool(2)
            assert traced is not plain
            assert traced.obs
            # cache is stable within the obs scope
            assert get_pool(2) is traced
        assert get_pool(2) is plain

    def test_collect_refuses_null_pool(self):
        with pytest.raises(ValueError, match="enable_rank_obs"):
            collect_rank_obs(get_pool(2))

    @pytest.mark.parametrize("p", [2, 3])
    def test_obs_pool_allocates_only_the_data_fabric(self, p):
        """An obs pool registers the same one transport of p(p+1) shm
        segments as a plain pool: obs frames ride the data fabric."""
        from repro.parallel.shm import _registry_dir

        def mine():
            prefix = f"{os.getpid()}-"
            return {f for f in os.listdir(_registry_dir()) if f.startswith(prefix)}

        for obs in (False, True):
            before = mine()
            pool = WorkerPool(p, obs=obs)
            try:
                (added,) = mine() - before
                with open(os.path.join(_registry_dir(), added)) as f:
                    assert len(json.load(f)["segments"]) == p * (p + 1)
            finally:
                pool.close()


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    def _collect(self, size=2):
        with enable_rank_obs():
            _two_collectives(size)
            return collect_rank_obs(get_pool(size))

    def test_every_rank_reports(self):
        obs = self._collect()
        assert sorted(obs.tracers) == [0, 1]
        assert sorted(obs.flight_events) == [0, 1]

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
            return collect_rank_obs(get_pool(size))

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

    def test_rank_events_fold_into_the_conductor_record(self):
        from repro.obs.flight import FlightRecorder
        from repro.parallel.obsband import record_rank_events

        obs = self._obs(2)
        fr = FlightRecorder(run_id="conductor")
        record_rank_events(fr, obs.flight_events)
        rows = fr.find("rank_event")
        assert [ev.seq for ev in fr.events] == list(range(len(fr)))
        assert {ev.rank for ev in rows} == {0, 1}
        # ranks in order, each rank's own causal order kept
        assert [ev.rank for ev in rows] == sorted(ev.rank for ev in rows)
        for r in (0, 1):
            mine = [ev for ev in rows if ev.rank == r]
            assert [ev.data["rank_seq"] for ev in mine] == [
                ev.seq for ev in obs.flight_events[r]]
            calls = [ev.data["call"] for ev in mine
                     if ev.data["rank_kind"] == "collective"]
            assert calls == sorted(calls) and calls


# ----------------------------------------------------------------------
# death: salvage
# ----------------------------------------------------------------------
class TestWorkerDeath:
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
    def test_runner_merges_everything(self, tmp_path):
        from repro.graphs import path_graph
        from repro.obs.explain import diagnose
        from repro.obs.flight import read_flight_jsonl
        from repro.runner import run_driver

        g = path_graph(120)
        path = str(tmp_path / "fl.jsonl")
        res = run_driver(g, "spmd", ranks=2, backend="proc", trace=True,
                         analyze=True, record_path=path)
        tracer, obs = res.tracer, res.rank_obs
        assert res.components == 1
        assert sorted(obs.tracers) == [0, 1]

        # every worker collective carries the step whose span the rank
        # runner had open around the conductor's collective
        want = Counter(
            step.name
            for step in tracer.find(cat="step")
            for _ in step.find(cat="proccomm")
        )
        assert set(want) == {"starcheck", "cond_hook", "uncond_hook", "convergence"}
        for tr in obs.tracers.values():
            assert Counter(sp.attrs.get("step") for sp in tr.find(cat="collective")) == want

        # measured analytics: λ and an exact compute/comm/wait split
        rep = res.analytics
        assert rep.source == "measured-proc"
        assert rep.ranks == 2
        assert all(s.lam >= 1.0 for s in rep.steps)
        for ph in rep.phases:
            parts = ph.compute_seconds + ph.comm_seconds + ph.delay_seconds
            assert parts <= ph.seconds * 1.001
        assert "measured" in rep.render()

        # merged chrome trace: conductor + one lane per rank
        ev = res.chrome_trace()["traceEvents"]
        pids = {e["pid"] for e in ev}
        assert {0, 1, 2} <= pids

        # the JSONL sink got the conductor record + folded rank events
        events = read_flight_jsonl(path)
        assert any(ev.kind == "rank_event" for ev in events)
        diag = diagnose(events)
        assert diag.healthy
        shutdown_pools()

    def test_profiling_adds_no_per_collective_frames(self):
        """A traced, recorded ``run_driver`` may send each worker its one
        ``OP_OBS`` collection frame beyond what the same run gets under
        rank obs alone; a query per collective would add dozens."""
        from repro.core.lacc_spmd import lacc_spmd
        from repro.graphs import path_graph
        from repro.runner import run_driver

        g = path_graph(120)

        def frames_received(run):
            with enable_rank_obs(), backend.use("proc"):
                pool = get_pool(2)
                before = sum(int(s[3]) for s in pool.stats())
                run()
                assert get_pool(2) is pool
                return sum(int(s[3]) for s in pool.stats()) - before

        plain = frames_received(lambda: lacc_spmd(g, ranks=2))
        profiled = frames_received(
            lambda: run_driver(g, "spmd", ranks=2, trace=True, analyze=True))
        assert plain > 0
        assert 0 <= profiled - plain <= 2  # one OP_OBS frame per worker
        shutdown_pools()

    @pytest.mark.parametrize("faults", [[], ["--faults", "crash", "--after", "20"]],
                             ids=["clean", "crash"])
    @pytest.mark.parametrize("driver", ["spmd", "2d"])
    def test_every_observer_on_proc(self, driver, faults, tmp_path, capsys):
        """``repro run`` with every observer flag at once on real
        processes: each file is written, the merged trace has a pid lane
        per rank plus the conductor, the text shows each printed
        observer, and the JSON record carries the keys CI reads."""
        from repro.cli import main
        from repro.graphs import generators as gen
        from repro.graphs import io as gio

        mtx = str(tmp_path / "g.mtx")
        gio.write_matrix_market(mtx, gen.component_mixture([8, 5, 3], seed=1))
        files = {"--trace": "trace.json", "--record": "fr.jsonl",
                 "--out": "labels.txt"}
        argv = ["run", mtx, "--driver", driver, "--backend", "proc",
                "--ranks", "4", *faults, "--top", "--flame", "--analyze",
                "--stats"]
        argv += [x for flag, name in files.items()
                 for x in (flag, str(tmp_path / name))]
        for extra in ([], ["--json"]):
            assert main(argv + extra) == 0
            out = capsys.readouterr().out
            for name in files.values():
                assert (tmp_path / name).stat().st_size > 0
            trace = json.loads((tmp_path / "trace.json").read_text())
            assert {e["pid"] for e in trace["traceEvents"]} == {0, 1, 2, 3, 4}
            if not extra:
                for shows in ("levels deep", "#", "per-rank analytics",
                              "largest component",
                              "worker spans across 4 ranks"):
                    assert shows in out
        run, = json.loads(out)["runs"]
        assert run["components"] == 3 and run["ok"]
        assert run["analytics"]["source"] == "measured-proc"
        assert run["injected"] == ({"crash": 1} if faults else {})
        shutdown_pools()
