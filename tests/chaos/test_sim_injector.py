"""Sim-side chaos: the injector models real faults as typed errors.

The simulator cannot kill a process, so :meth:`ChaosInjector.fire_sim`
raises the same classified :class:`~repro.faults.CollectiveError` the
real injection produces on the proc backend — which is exactly what
lets the supervisor's escalation chain (including shrink-to-survivors)
be exercised quickly, without forking anything.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.chaos import ChaosInjector, activate_chaos, active_injector, chaos_preset
from repro.chaos.harness import chaos_run
from repro.faults import CollectiveError
from repro.graphs import path_graph, star_graph


class TestActivation:
    def test_scoped_activation_restores_previous(self):
        assert active_injector() is None
        a = ChaosInjector(chaos_preset("kill", seed=0))
        b = ChaosInjector(chaos_preset("kill", seed=1))
        with activate_chaos(a):
            assert active_injector() is a
            with activate_chaos(b):
                assert active_injector() is b
            assert active_injector() is a
        assert active_injector() is None


class TestFireSim:
    def test_kill_models_rank_lost(self):
        inj = ChaosInjector(chaos_preset("kill", seed=0, after=2))
        inj.fire_sim("allreduce", 4)  # call 1: schedule not due yet
        with pytest.raises(CollectiveError) as ei:
            inj.fire_sim("allreduce", 4)
        err = ei.value
        assert list(err.kinds) == ["rank_lost"]
        assert len(err.lost_ranks) == 1
        assert 0 <= err.lost_ranks[0] < 4
        assert inj.plan.summary() == {"kill": 1}

    def test_exit_models_rank_lost_too(self):
        inj = ChaosInjector(chaos_preset("exit", seed=0, after=1))
        with pytest.raises(CollectiveError) as ei:
            inj.fire_sim("bcast", 4)
        assert list(ei.value.kinds) == ["rank_lost"]

    def test_frame_models_worker_died(self):
        inj = ChaosInjector(chaos_preset("frame", seed=0, after=1))
        with pytest.raises(CollectiveError) as ei:
            inj.fire_sim("alltoallv", 4)
        assert list(ei.value.kinds) == ["worker_died"]
        assert ei.value.lost_ranks == ()

    def test_stop_has_no_simulated_counterpart(self):
        inj = ChaosInjector(chaos_preset("stall", seed=0, after=1))
        inj.fire_sim("allreduce", 4)  # completes: wall-clock only
        assert inj.plan.summary() == {"stop": 1}

    def test_explicit_rank_overrides_seeded_victim(self):
        inj = ChaosInjector(chaos_preset("kill", seed=0, after=1, rank=3))
        with pytest.raises(CollectiveError) as ei:
            inj.fire_sim("allreduce", 4)
        assert ei.value.lost_ranks == (3,)

    def test_log_is_byte_identical_across_replays(self):
        logs = []
        for _ in range(2):
            inj = ChaosInjector(chaos_preset("kill", seed=6, after=3))
            for _call in range(5):
                try:
                    inj.fire_sim("allgatherv", 4)
                except CollectiveError:
                    pass
            logs.append(inj.plan.to_json())
        assert logs[0] == logs[1]


class TestSupervisedSimChaos:
    """chaos_run end-to-end on the simulator: fast full-chain checks."""

    def test_kill_recovers_byte_identical(self):
        r = chaos_run(path_graph(200), driver="spmd", ranks=4,
                      preset="kill", seed=1, backend="sim")
        assert r.ok
        assert r.recoveries >= 1
        assert r.rank_lost_events == 1
        assert "rank_lost" in r.anomaly_classes

    def test_shrink_repartitions_to_survivors(self):
        r = chaos_run(path_graph(200), driver="spmd", ranks=4,
                      preset="shrink", seed=2, backend="sim")
        assert r.ok
        assert r.shrunk_to == 3
        assert r.recoveries >= 2
        assert "shrink_recovery" in r.anomaly_classes
        assert any(e["action"] == "shrink" for e in r.recovery_events)

    def test_2d_shrinks_to_next_lower_square(self):
        r = chaos_run(star_graph(150), driver="2d", ranks=4,
                      preset="shrink", seed=3, backend="sim")
        assert r.ok
        assert r.shrunk_to == 1  # next square below 4
        assert any(e["action"] == "shrink" for e in r.recovery_events)

    def test_2d_never_shrinks_below_min_ranks(self):
        # the only square in [2, 3] is none: no shrink, and no 2-rank grid
        r = chaos_run(star_graph(150), driver="2d", ranks=4,
                      preset="shrink", seed=3, backend="sim", min_ranks=2)
        assert r.oracle_ok
        for e in r.recovery_events:
            if e["action"] == "shrink":
                new = int(e["detail"].split("→")[1].split()[0])
                assert new >= 2 and math.isqrt(new) ** 2 == new

    def test_stall_is_a_clean_run_on_sim(self):
        r = chaos_run(path_graph(200), driver="spmd", ranks=4,
                      preset="stall", seed=0, backend="sim")
        assert r.ok
        assert r.recoveries == 0
        assert r.anomaly_classes == []

    def test_chaos_log_recorded_in_report(self):
        r = chaos_run(path_graph(200), driver="spmd", ranks=4,
                      preset="kill", seed=1, backend="sim")
        assert r.injected == {"kill": 1}
        assert "kill" in r.chaos_log
