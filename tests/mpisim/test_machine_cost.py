"""Tests for machine models, the α–β cost model, and collective cost
formulas (closed-form checks)."""

import math

import numpy as np
import pytest

from repro.mpisim import CORI_KNL, EDISON, LAPTOP, CostModel, MachineModel, collectives


class TestMachineModel:
    def test_table2_constants(self):
        assert EDISON.cores_per_node == 24
        assert EDISON.clock_ghz == 2.4
        assert CORI_KNL.cores_per_node == 68
        assert CORI_KNL.stream_bw_node == 102e9
        assert EDISON.stream_bw_node == 89e9

    def test_paper_process_configuration(self):
        # §VI-A: 6 threads/process on Edison, 16 on Cori → 4 procs/node
        assert EDISON.processes_per_node == 4
        assert CORI_KNL.processes_per_node == 4

    def test_ranks_flat_mpi(self):
        assert EDISON.ranks(256, flat_mpi=True) == 6144
        assert CORI_KNL.ranks(256, flat_mpi=True) == 17408

    def test_ranks_hybrid(self):
        assert EDISON.ranks(256) == 1024

    def test_mem_time_scales_with_sharing(self):
        assert EDISON.mem_time_per_op(24) > EDISON.mem_time_per_op(4)

    def test_edison_faster_core_than_knl(self):
        """§VI-C: few faster cores beat many slower ones for sparse ops —
        per-core STREAM share must be higher on Edison."""
        assert EDISON.mem_time_per_op(24) < CORI_KNL.mem_time_per_op(68)


class TestCostModel:
    def make(self, ranks=16, nodes=4):
        return CostModel(EDISON, ranks, nodes)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(EDISON, 0, 1)
        with pytest.raises(ValueError):
            CostModel(EDISON, 4, 0)

    def test_compute_charge(self):
        c = self.make()
        dt = c.charge_compute(1e6, "work")
        assert dt > 0
        assert c.phases["work"].flops == 1e6
        assert c.total_seconds == pytest.approx(dt)

    def test_comm_charge(self):
        c = self.make()
        dt = c.charge_comm(1000, 5, "net")
        expected = c._beta * 1000 + c._alpha * 5
        assert dt == pytest.approx(expected)
        assert c.total_words == 1000
        assert c.total_messages == 5

    def test_negative_rejected(self):
        c = self.make()
        with pytest.raises(ValueError):
            c.charge_compute(-1)
        with pytest.raises(ValueError):
            c.charge_comm(-1, 0)

    def test_phase_context(self):
        c = self.make()
        with c.phase("hook"):
            c.charge_compute(10)
            with c.phase("inner"):
                c.charge_compute(5)
            c.charge_compute(1)
        assert c.phases["hook"].flops == 11
        assert c.phases["inner"].flops == 5

    def test_unattributed_phase(self):
        c = self.make()
        c.charge_compute(3)
        assert c.phases["unattributed"].flops == 3

    def test_phase_seconds_view(self):
        c = self.make()
        assert c.phase_seconds() == {}
        c.charge_compute(10, "hook")
        c.charge_comm(100, 2, "hook")
        c.charge_compute(5, "shortcut")
        ps = c.phase_seconds()
        assert set(ps) == {"hook", "shortcut"}
        assert ps["hook"] == pytest.approx(c.phases["hook"].seconds)
        assert sum(ps.values()) == pytest.approx(c.total_seconds)

    def test_single_node_uses_shared_memory_rates(self):
        multi = CostModel(EDISON, 16, 4)
        single = CostModel(EDISON, 4, 1)
        assert single._beta < multi._beta
        assert single._alpha < multi._alpha


class TestCollectiveFormulas:
    def setup_method(self):
        self.cost = CostModel(EDISON, 64, 16)
        self.alpha = self.cost._alpha
        self.beta = self.cost._beta

    def test_bcast(self):
        dt = collectives.bcast(self.cost, 16, 100)
        assert dt == pytest.approx(self.beta * 100 * 4 + self.alpha * 4)

    def test_bcast_trivial(self):
        assert collectives.bcast(self.cost, 1, 100) == 0.0
        assert collectives.bcast(self.cost, 8, 0) == 0.0

    def test_allgather(self):
        dt = collectives.allgather(self.cost, 16, 10)
        assert dt == pytest.approx(self.beta * 150 + self.alpha * 4)

    def test_reduce_scatter_includes_reduction_ops(self):
        c = CostModel(EDISON, 64, 16)
        collectives.reduce_scatter(c, 16, 1600)
        moved = 15 / 16 * 1600
        assert c.total_words == pytest.approx(moved)
        assert sum(p.flops for p in c.phases.values()) == pytest.approx(moved)

    def test_allreduce_combination(self):
        c1 = CostModel(EDISON, 64, 16)
        collectives.allreduce(c1, 16, 160)
        c2 = CostModel(EDISON, 64, 16)
        collectives.reduce_scatter(c2, 16, 160)
        collectives.allgather(c2, 16, 10)
        assert c1.total_seconds == pytest.approx(c2.total_seconds)

    def test_pairwise_vs_hypercube_latency(self):
        """§V-B: pairwise pays α(p−1); hypercube pays α·log p."""
        p = 1024
        c1 = CostModel(EDISON, p, 256)
        collectives.alltoallv_pairwise(c1, p, 0)
        c2 = CostModel(EDISON, p, 256)
        collectives.alltoallv_hypercube(c2, p, 0)
        assert c1.total_messages == p - 1
        assert c2.total_messages == 10
        assert c2.total_seconds < c1.total_seconds

    def test_hypercube_inflates_bandwidth(self):
        p = 16
        c = CostModel(EDISON, p, 4)
        collectives.alltoallv_hypercube(c, p, 100)
        assert c.total_words == pytest.approx(100 * 4)

    def test_sparse_alltoall_only_active_ranks(self):
        c1 = CostModel(EDISON, 1024, 256)
        collectives.alltoallv_sparse(c1, 5, 100)
        c2 = CostModel(EDISON, 1024, 256)
        collectives.alltoallv_hypercube(c2, 1024, 100)
        assert c1.total_seconds < c2.total_seconds

    def test_crossover_pairwise_wins_small_p_large_messages(self):
        """Hypercube trades bandwidth for latency: for big payloads on few
        ranks, pairwise is cheaper."""
        p = 64
        w = 1e6
        c1 = CostModel(EDISON, p, 16)
        collectives.alltoallv_pairwise(c1, p, w)
        c2 = CostModel(EDISON, p, 16)
        collectives.alltoallv_hypercube(c2, p, w)
        assert c1.total_seconds < c2.total_seconds
