"""Tests for LACC over the literal 2D CombBLAS machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lacc
from repro.core.lacc_2d import lacc_2d
from repro.core.lacc_spmd import lacc_spmd
from repro.graphs import generators as gen
from repro.graphs import validate
from repro.obs import Tracer, activate


class TestCorrectness:
    @pytest.mark.parametrize("nprocs", [1, 4, 9, 16])
    def test_matches_ground_truth(self, nprocs):
        g = gen.component_mixture([25, 10, 4, 4], seed=1)
        r = lacc_2d(g, nprocs=nprocs)
        assert validate.same_partition(r.parents, validate.ground_truth(g))
        assert r.n_components == 4
        assert r.grid_side ** 2 == nprocs

    def test_matches_serial_lacc(self):
        g = gen.erdos_renyi(130, 2.2, seed=2)
        a = lacc_2d(g, nprocs=4)
        b = lacc(g.to_matrix())
        assert validate.same_partition(a.parents, b.parents)

    def test_rejects_non_square_grid(self):
        with pytest.raises(ValueError):
            lacc_2d(gen.path_graph(10), nprocs=6)

    def test_empty_graph(self):
        r = lacc_2d(gen.EdgeList(7, [], []), nprocs=4)
        assert r.n_components == 7 and r.n_iterations == 0

    def test_step_spans_match_spmd(self):
        # both drivers run the one block-distributed loop of lacc_spmd
        g = gen.component_mixture([25, 10, 4, 4], seed=1)
        steps = []
        for run in (lambda: lacc_2d(g, nprocs=4), lambda: lacc_spmd(g, ranks=4)):
            tr = Tracer()
            with activate(tr):
                run()
            steps.append([
                [c.name for c in it.children if c.cat == "step"]
                for it in tr.find("iteration", "iteration")
            ])
        assert steps[0] and steps[0] == steps[1]
        assert steps[0][0] == [
            "starcheck", "cond_hook", "starcheck", "uncond_hook", "starcheck",
            "shortcut", "convergence",
        ]

    def test_iteration_guard(self):
        with pytest.raises(RuntimeError):
            lacc_2d(gen.path_graph(64), nprocs=4, max_iterations=1)

    def test_ragged_block_sizes(self):
        # n not divisible by grid side or nprocs
        g = gen.erdos_renyi(37, 3.0, seed=3)
        r = lacc_2d(g, nprocs=9)
        assert validate.same_partition(r.parents, validate.ground_truth(g))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_fuzz(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        m = int(rng.integers(0, 150))
        g = gen.EdgeList(n, rng.integers(0, n, m), rng.integers(0, n, m))
        r = lacc_2d(g, nprocs=4)
        assert validate.same_partition(r.parents, validate.ground_truth(g))


class TestExecutionModelsAgree:
    def test_all_four_models_identical_labels(self):
        """Serial, analytic-distributed, 1D SPMD and 2D literal runs must
        produce the same canonical labels."""
        from repro.core.lacc_dist import lacc_dist
        from repro.core.lacc_spmd import lacc_spmd
        from repro.mpisim import EDISON

        g = gen.component_mixture([20, 12, 6], seed=4)
        serial = lacc(g.to_matrix()).labels
        dist = lacc_dist(g.to_matrix(), EDISON, nodes=1).labels
        spmd = lacc_spmd(g, ranks=4).labels
        grid2d = lacc_2d(g, nprocs=4).labels
        for other in (dist, spmd, grid2d):
            np.testing.assert_array_equal(serial, other)

    def test_iterations_logarithmic(self):
        g = gen.path_graph(256)
        r = lacc_2d(g, nprocs=4)
        assert r.n_iterations <= 2 * 8 + 4

    def test_words_counted(self):
        g = gen.erdos_renyi(100, 3.0, seed=5)
        r = lacc_2d(g, nprocs=4)
        assert r.words_sent > 0

    def test_flaky_run_reports_fault_seconds(self):
        """With no cost model attached, recovery time is pooled into the
        result's fault_seconds, as lacc_spmd reports it."""
        from repro.faults import preset

        g = gen.erdos_renyi(100, 3.0, seed=5)
        plan = preset("flaky", seed=0)
        r = lacc_2d(g, nprocs=4, faults=plan)
        assert validate.same_partition(r.parents, validate.ground_truth(g))
        assert plan.n_injected > 0
        assert r.fault_seconds > 0
