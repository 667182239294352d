"""The chaos acceptance matrix on the real-process backend.

Both distributed drivers × {SIGKILL, SIGSTOP straggler, shm frame
corruption} × 3 seeds: every run must complete **without a fresh
start**, with the final parent vector byte-identical to the fault-free
run and the labels union-find-verified — and replaying one chaos seed
must reproduce the same flight-recorder event sequence (modulo wall
timestamps).  Real signals, real processes, real shared memory.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import CollectiveError, preset
from repro.graphs import path_graph
from repro.runner import run_driver

SEEDS = (1, 5, 9)
G = path_graph(200)


def _run(driver, preset, seed, **kw):
    return run_driver(
        G, driver=driver, ranks=4, preset=preset, seed=seed,
        backend="proc", stall_seconds=0.5, **kw,
    )


class TestAcceptanceMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("driver", ["spmd", "2d"])
    def test_kill(self, driver, seed):
        r = _run(driver, "kill", seed)
        assert r.byte_identical, "final parents differ from fault-free run"
        assert r.oracle_ok
        assert r.resumed, f"restarted from scratch: {r.recovery_events}"
        assert r.recoveries >= 1  # a real SIGKILL cannot be a clean run
        assert r.rank_lost_events >= 1
        assert "rank_lost" in r.anomaly_classes

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("driver", ["spmd", "2d"])
    def test_sigstop_straggler(self, driver, seed):
        r = _run(driver, "stall", seed)
        assert r.byte_identical and r.oracle_ok and r.resumed
        # a straggler slows the run; it must not kill or restart it
        assert r.rank_lost_events == 0
        assert r.injected == {"stop": 1}

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("driver", ["spmd", "2d"])
    def test_frame_corruption(self, driver, seed):
        r = _run(driver, "frame", seed)
        assert r.byte_identical and r.oracle_ok and r.resumed
        assert r.recoveries >= 1  # the drainer must detect the bad magic
        assert r.injected == {"frame": 1}


class TestShrinkToSurvivors:
    def test_double_kill_shrinks_and_stays_exact(self):
        r = _run("spmd", "shrink", seed=7)
        assert r.byte_identical and r.oracle_ok and r.resumed
        assert r.shrunk_to == 3
        assert r.recoveries >= 2
        assert "shrink_recovery" in r.anomaly_classes
        shrinks = [e for e in r.recovery_events if e["action"] == "shrink"]
        assert len(shrinks) == 1
        assert "4→3" in shrinks[0]["detail"]

    def test_2d_shrinks_to_next_square(self):
        r = _run("2d", "shrink", seed=4)
        assert r.byte_identical and r.oracle_ok and r.resumed
        assert r.shrunk_to == 1


class TestReplayDeterminism:
    @staticmethod
    def _signature(path):
        """The run's semantic event sequence: everything except wall
        timestamps and the random run id."""
        from repro.obs.flight import read_flight_jsonl

        sig = []
        for ev in read_flight_jsonl(path):
            if ev.kind == "run_meta":
                continue
            d = ev.data
            sig.append((
                ev.kind, ev.rank, ev.iteration, ev.step,
                d.get("collective"), d.get("fault_kind"), d.get("action"),
                tuple(d.get("kinds", ())), tuple(d.get("lost_ranks", ())),
                d.get("survivors"), d.get("detector"),
            ))
        return sig

    def test_same_seed_replays_identical_event_sequence(self, tmp_path):
        paths = [str(tmp_path / f"flight{i}.jsonl") for i in (0, 1)]
        logs = []
        for p in paths:
            r = _run("spmd", "kill", seed=3, record_path=p)
            assert r.ok
            logs.append(r.chaos_log)
        assert logs[0] == logs[1]  # byte-identical injection log
        assert self._signature(paths[0]) == self._signature(paths[1])


class TestCrossBackendLog:
    """One seed, one schedule: the sim model and the real injection log
    the same faults in the same words."""

    @pytest.mark.parametrize("driver,preset_name", [
        ("spmd", "kill"), ("spmd", "frame"), ("spmd", "stall"),
        ("spmd", "shrink"), ("2d", "kill"),
    ])
    def test_chaos_log_byte_identical_on_sim_and_proc(self, driver, preset_name):
        logs = [
            run_driver(G, driver=driver, ranks=4, preset=preset_name, seed=3,
                       backend=backend, stall_seconds=0.5).chaos_log
            for backend in ("sim", "proc")
        ]
        assert logs[0] == logs[1]
        assert logs[0] != "[]"  # the schedule fired


class TestTypedErrorsThroughProc:
    def test_rank_lost_carries_lost_ranks_without_supervision(self):
        """Unsupervised: the raw CollectiveError from a real SIGKILL must
        carry the classified kind and the lost rank list."""
        from repro.core.lacc_spmd import lacc_spmd
        from repro.mpisim import backend as B

        plan = preset("kill", seed=1, after=50, rank=2)
        with B.use("proc"):
            with pytest.raises(CollectiveError) as ei:
                lacc_spmd(G, ranks=4, faults=plan)
        err = ei.value
        assert "rank_lost" in err.kinds
        assert err.lost_ranks == (2,)
        assert "permanently lost" in str(err)


class TestRankObsPostmortem:
    """Chaos + per-rank obs: the merged flight record must carry both
    halves of a kill — the dead rank's salvaged last events and the
    survivors' records (see docs/OBSERVABILITY.md, "Per-rank
    observability")."""

    def test_kill_preserves_dead_rank_flight_events(self, tmp_path):
        from repro.obs.flight import read_flight_jsonl

        path = str(tmp_path / "kill.jsonl")
        r = _run("spmd", "kill", 1, record_path=path)
        assert r.ok and r.rank_lost_events >= 1
        events = read_flight_jsonl(path)
        rank_rows = [ev for ev in events if ev.kind == "rank_event"]
        salvaged = [ev for ev in rank_rows if ev.data.get("salvaged")]
        assert salvaged, "dead pool's obs salvage missing"
        assert "collective" in {ev.data["rank_kind"] for ev in salvaged}
        # the post-run drain folded the surviving pool's records in too
        assert any(not ev.data.get("salvaged") for ev in rank_rows)
        # the conductor's own envelope survived the merge untouched
        assert events[0].kind == "run_meta"
        assert any(ev.kind == "run_end" for ev in events)
