"""Sim-side chaos: the simulator models real faults as typed errors.

The simulator cannot kill a process, so :class:`~repro.mpisim.SimComm`
raises the same classified :class:`~repro.faults.CollectiveError` the
real injection produces on the proc backend, from the process faults its
collective drew from the one :class:`~repro.faults.FaultPlan` — which is
exactly what lets the supervisor's escalation chain (including
shrink-to-survivors) be exercised quickly, without forking anything.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.faults import CollectiveError, preset
from repro.graphs import path_graph, star_graph
from repro.mpisim import SimComm
from repro.runner import run_driver

ONES = [np.ones(2, dtype=np.int64)] * 4
SEND = [[np.arange(i + j, dtype=np.int64) for j in range(4)] for i in range(4)]


def _allreduce(comm):
    return comm.allreduce(ONES, np.add)


def _alltoallv(comm):
    return comm.alltoallv(SEND)


class TestFireSim:
    def test_kill_models_rank_lost(self):
        comm = SimComm(4, faults=preset("kill", seed=0, after=2))
        _allreduce(comm)  # call 1: schedule not due yet
        with pytest.raises(CollectiveError) as ei:
            _allreduce(comm)
        err = ei.value
        assert list(err.kinds) == ["rank_lost"]
        assert len(err.lost_ranks) == 1
        assert 0 <= err.lost_ranks[0] < 4
        assert comm.faults.summary() == {"kill": 1}

    def test_exit_models_rank_lost_too(self):
        comm = SimComm(4, faults=preset("exit", seed=0, after=1))
        with pytest.raises(CollectiveError) as ei:
            _alltoallv(comm)
        assert list(ei.value.kinds) == ["rank_lost"]

    def test_frame_models_worker_died(self):
        comm = SimComm(4, faults=preset("frame", seed=0, after=1))
        with pytest.raises(CollectiveError) as ei:
            _alltoallv(comm)
        assert list(ei.value.kinds) == ["worker_died"]
        assert ei.value.lost_ranks == ()

    def test_stop_has_no_simulated_counterpart(self):
        comm = SimComm(4, faults=preset("stall", seed=0, after=1))
        out = _allreduce(comm)  # completes: wall-clock only
        assert all(np.array_equal(o, [4, 4]) for o in out)
        assert comm.faults.summary() == {"stop": 1}

    def test_explicit_rank_overrides_seeded_victim(self):
        comm = SimComm(4, faults=preset("kill", seed=0, after=1, rank=3))
        with pytest.raises(CollectiveError) as ei:
            _allreduce(comm)
        assert ei.value.lost_ranks == (3,)

    def test_log_is_byte_identical_across_replays(self):
        logs = []
        for _ in range(2):
            comm = SimComm(4, faults=preset("kill", seed=6, after=3))
            for _call in range(5):
                try:
                    _alltoallv(comm)
                except CollectiveError:
                    pass
            logs.append(comm.faults.to_json())
        assert logs[0] == logs[1]


class TestSupervisedSimChaos:
    """run_driver under faults end-to-end on the simulator: fast
    full-chain checks."""

    def test_kill_recovers_byte_identical(self):
        r = run_driver(path_graph(200), driver="spmd", ranks=4,
                       preset="kill", seed=1, backend="sim")
        assert r.ok
        assert r.recoveries >= 1
        assert r.rank_lost_events == 1
        assert "rank_lost" in r.anomaly_classes

    def test_shrink_repartitions_to_survivors(self):
        r = run_driver(path_graph(200), driver="spmd", ranks=4,
                       preset="shrink", seed=2, backend="sim")
        assert r.ok
        assert r.shrunk_to == 3
        assert r.recoveries >= 2
        assert "shrink_recovery" in r.anomaly_classes
        assert any(e["action"] == "shrink" for e in r.recovery_events)

    def test_2d_shrinks_to_next_lower_square(self):
        r = run_driver(star_graph(150), driver="2d", ranks=4,
                       preset="shrink", seed=3, backend="sim")
        assert r.ok
        assert r.shrunk_to == 1  # next square below 4
        assert any(e["action"] == "shrink" for e in r.recovery_events)

    def test_2d_never_shrinks_below_min_ranks(self):
        # the only square in [2, 3] is none: no shrink, and no 2-rank grid
        r = run_driver(star_graph(150), driver="2d", ranks=4,
                       preset="shrink", seed=3, backend="sim", min_ranks=2)
        assert r.oracle_ok
        new = r.shrunk_to
        assert new is None or (new >= 2 and math.isqrt(new) ** 2 == new)

    def test_stall_is_a_clean_run_on_sim(self):
        r = run_driver(path_graph(200), driver="spmd", ranks=4,
                       preset="stall", seed=0, backend="sim")
        assert r.ok
        assert r.recoveries == 0
        assert r.anomaly_classes == []

    def test_chaos_log_recorded_in_report(self):
        r = run_driver(path_graph(200), driver="spmd", ranks=4,
                       preset="kill", seed=1, backend="sim")
        assert r.injected == {"kill": 1}
        assert "kill" in r.chaos_log

    def test_victim_rank_outside_the_world_is_rejected(self):
        with pytest.raises(ValueError, match="victim rank 7"):
            run_driver(path_graph(200), driver="spmd", ranks=4,
                       preset="kill", rank=7, backend="sim")
