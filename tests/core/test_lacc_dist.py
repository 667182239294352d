"""Tests for simulated distributed LACC and the ParConnect competitor:
correctness (must equal serial LACC / ground truth), cost-model sanity,
and the qualitative scaling behaviours the paper reports."""

import numpy as np
import pytest

from repro.baselines.parconnect import parconnect
from repro.core import lacc
from repro.core.lacc_dist import grid_for, lacc_dist
from repro.graphblas import Matrix
from repro.graphs import corpus, generators as gen, validate
from repro.mpisim import CORI_KNL, EDISON


@pytest.fixture(scope="module")
def mixture():
    g = gen.component_mixture([40] * 5 + [8] * 25, seed=1)
    return g, g.to_matrix(), validate.ground_truth(g)


class TestGridFor:
    def test_edison_one_node(self):
        ranks, side = grid_for(EDISON, 1)
        assert ranks == 4 and side == 2  # 4 processes/node

    def test_largest_square(self):
        # 8 nodes * 4 procs = 32 ranks -> 5x5 = 25 used
        ranks, side = grid_for(EDISON, 8)
        assert side == 5 and ranks == 25

    def test_cori(self):
        ranks, side = grid_for(CORI_KNL, 256)
        assert side == 32 and ranks == 1024


class TestCorrectness:
    @pytest.mark.parametrize("nodes", [1, 4, 16])
    def test_matches_ground_truth(self, mixture, nodes):
        g, A, gt = mixture
        r = lacc_dist(A, EDISON, nodes=nodes)
        assert validate.same_partition(r.parents, gt)
        assert r.n_components == np.unique(gt).size

    def test_matches_serial_lacc(self, mixture):
        g, A, gt = mixture
        serial = lacc(A)
        dist = lacc_dist(A, EDISON, nodes=4)
        assert validate.same_partition(dist.parents, serial.parents)

    def test_permutation_off(self, mixture):
        g, A, gt = mixture
        r = lacc_dist(A, EDISON, nodes=4, permute=False)
        assert validate.same_partition(r.parents, gt)

    def test_without_sparsity(self, mixture):
        g, A, gt = mixture
        r = lacc_dist(A, EDISON, nodes=4, use_sparsity=False)
        assert validate.same_partition(r.parents, gt)

    def test_empty_graph(self):
        A = Matrix.adjacency(5, [], [])
        r = lacc_dist(A, EDISON, nodes=1)
        assert r.n_components == 5 and r.n_iterations == 0

    def test_rejects_asymmetric(self):
        m = Matrix.from_edges(3, 3, [0], [1], [1])
        with pytest.raises(ValueError):
            lacc_dist(m, EDISON)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = 120
        m = int(rng.integers(50, 400))
        g = gen.EdgeList(n, rng.integers(0, n, m), rng.integers(0, n, m))
        r = lacc_dist(g.to_matrix(), EDISON, nodes=4, seed=seed)
        assert validate.same_partition(r.parents, validate.ground_truth(g))


class TestCostModel:
    def test_cost_positive(self, mixture):
        g, A, gt = mixture
        r = lacc_dist(A, EDISON, nodes=4)
        assert r.simulated_seconds > 0
        assert r.cost.total_words > 0

    def test_four_step_phases_present(self, mixture):
        g, A, gt = mixture
        r = lacc_dist(A, EDISON, nodes=4)
        assert {"cond_hook", "uncond_hook", "starcheck", "shortcut"} <= set(
            r.cost.phases
        )

    def test_step_model_seconds_sum_to_total(self, mixture):
        g, A, gt = mixture
        r = lacc_dist(A, EDISON, nodes=4)
        per_iter = sum(
            sum(it.step_model_seconds.values()) for it in r.stats.iterations
        )
        assert per_iter == pytest.approx(r.simulated_seconds, rel=1e-6)

    def test_deterministic(self, mixture):
        g, A, gt = mixture
        a = lacc_dist(A, EDISON, nodes=4, seed=7)
        b = lacc_dist(A, EDISON, nodes=4, seed=7)
        assert a.simulated_seconds == b.simulated_seconds
        np.testing.assert_array_equal(a.parents, b.parents)

    def test_routing_reports_collected(self, mixture):
        g, A, gt = mixture
        r = lacc_dist(A, EDISON, nodes=4)
        steps = {s for _, s, _ in r.routing}
        assert "starcheck" in steps

    def test_edison_beats_cori_per_node(self):
        """§VI-C: both codes run faster on Edison than Cori at equal
        node counts (faster cores win for sparse ops)."""
        g = corpus.load("eukarya")
        A = g.to_matrix()
        e = lacc_dist(A, EDISON, nodes=16)
        c = lacc_dist(A, CORI_KNL, nodes=16)
        assert e.simulated_seconds < c.simulated_seconds


class TestScalingBehaviour:
    def test_strong_scaling_on_medium_graph(self):
        # starting at 4 nodes: the 1-node case runs over shared memory and
        # is not comparable to network-attached configurations
        g = corpus.load("eukarya")
        A = g.to_matrix()
        t = [lacc_dist(A, EDISON, nodes=k).simulated_seconds for k in (4, 16, 64)]
        assert t[1] < t[0]
        assert t[2] < t[1]

    def test_sparsity_helps_on_many_component_graph(self):
        g = corpus.load("archaea")
        A = g.to_matrix()
        on = lacc_dist(A, EDISON, nodes=16, use_sparsity=True)
        off = lacc_dist(A, EDISON, nodes=16, use_sparsity=False)
        assert on.simulated_seconds < off.simulated_seconds

    def test_comm_optimisations_help_at_scale(self):
        g = corpus.load("archaea")
        A = g.to_matrix()
        fast = lacc_dist(A, EDISON, nodes=256)
        slow = lacc_dist(
            A, EDISON, nodes=256, use_broadcast_offload=False, use_hypercube=False
        )
        assert fast.simulated_seconds < slow.simulated_seconds


class TestParConnect:
    def test_correct_labels(self):
        g = gen.component_mixture([30, 10, 10, 5], seed=3)
        r = parconnect(g.n, g.u, g.v, EDISON, nodes=1)
        assert validate.same_partition(r.parents, validate.ground_truth(g))

    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(seed + 100)
        n = 100
        m = int(rng.integers(0, 300))
        g = gen.EdgeList(n, rng.integers(0, n, m), rng.integers(0, n, m))
        r = parconnect(g.n, g.u, g.v, EDISON, nodes=2)
        assert validate.same_partition(r.parents, validate.ground_truth(g))

    def test_empty_graph(self):
        r = parconnect(4, np.array([]), np.array([]), EDISON, nodes=1)
        assert r.n_components == 4

    def test_flat_mpi_rank_count(self):
        g = gen.path_graph(50)
        r = parconnect(g.n, g.u, g.v, EDISON, nodes=4)
        assert r.ranks == 96  # 24 cores * 4 nodes, one rank per core

    def test_lacc_wins_at_scale(self):
        """The paper's headline: LACC outperforms ParConnect, most on
        many-component graphs (§VI-C)."""
        g = corpus.load("archaea")
        A = g.to_matrix()
        for nodes in (16, 64):
            t_lacc = lacc_dist(A, EDISON, nodes=nodes).simulated_seconds
            t_pc = parconnect(g.n, g.u, g.v, EDISON, nodes=nodes).simulated_seconds
            assert t_lacc < t_pc, nodes

    def test_parconnect_stops_scaling(self):
        """§VI-D: ParConnect does not scale beyond ~16K cores — simulated
        time grows again at very high node counts."""
        g = corpus.load("MOLIERE_2016")
        t_mid = parconnect(g.n, g.u, g.v, CORI_KNL, nodes=64).simulated_seconds
        t_huge = parconnect(g.n, g.u, g.v, CORI_KNL, nodes=4096).simulated_seconds
        assert t_huge > t_mid

    def test_lacc_scales_to_4k_nodes(self):
        """§VI-D: LACC keeps improving (or at least holds) out to 4K
        nodes on the big graphs."""
        g = corpus.load("MOLIERE_2016")
        A = g.to_matrix()
        t_64 = lacc_dist(A, CORI_KNL, nodes=64).simulated_seconds
        t_4096 = lacc_dist(A, CORI_KNL, nodes=4096).simulated_seconds
        pc_4096 = parconnect(g.n, g.u, g.v, CORI_KNL, nodes=4096).simulated_seconds
        assert t_4096 < pc_4096 / 10  # significant margin at extreme scale
