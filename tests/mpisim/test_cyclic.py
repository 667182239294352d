"""Tests for the cyclic vector distribution (§VII future work)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lacc_dist import lacc_dist
from repro.graphs import generators as gen
from repro.graphs import validate
from repro.mpisim import EDISON, ProcessGrid


class TestCyclicGrid:
    def test_owner_is_modulo(self):
        g = ProcessGrid(4, 100, distribution="cyclic")
        np.testing.assert_array_equal(
            g.vec_owner(np.array([0, 1, 4, 5, 99])), [0, 1, 0, 1, 3]
        )

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            ProcessGrid(4, 10, distribution="diagonal")

    def test_local_range_rejected(self):
        g = ProcessGrid(4, 10, distribution="cyclic")
        with pytest.raises(ValueError):
            g.local_range(0)

    def test_local_sizes_balanced(self):
        g = ProcessGrid(4, 10, distribution="cyclic")
        np.testing.assert_array_equal(g.local_sizes(), [3, 3, 2, 2])
        assert g.local_sizes().sum() == 10

    def test_local_size_rank_check(self):
        g = ProcessGrid(4, 10, distribution="cyclic")
        with pytest.raises(ValueError):
            g.local_size(4)

    def test_block_local_sizes_match_ranges(self):
        g = ProcessGrid(4, 10)
        sizes = g.local_sizes()
        for r in range(4):
            lo, hi = g.local_range(r)
            assert sizes[r] == hi - lo

    @pytest.mark.parametrize("distribution", ["block", "cyclic"])
    @pytest.mark.parametrize("p", [1, 4, 9, 16, 64, 100, 256])
    def test_local_sizes_equal_per_rank_sizes(self, distribution, p):
        for n in (0, 1, 2, 7, 63, 64, 65, 255, 257, 1001, 12345):
            g = ProcessGrid(p, n, distribution=distribution)
            want = np.array([g.local_size(r) for r in range(p)], dtype=np.int64)
            got = g.local_sizes()
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert g.local_sizes() is got  # cached
            assert not got.flags.writeable

    @settings(max_examples=25)
    @given(st.sampled_from([1, 4, 16]), st.integers(min_value=1, max_value=300))
    def test_cyclic_ownership_partition(self, p, n):
        g = ProcessGrid(p, n, distribution="cyclic")
        counts = g.vec_counts(np.arange(n))
        np.testing.assert_array_equal(counts, g.local_sizes())
        # cyclic is maximally balanced: sizes differ by at most one
        assert counts.max() - counts.min() <= 1

    def test_cyclic_flattens_small_id_concentration(self):
        """The motivating property: consecutive small ids spread across
        all ranks instead of landing on rank 0."""
        block = ProcessGrid(16, 1600)
        cyclic = ProcessGrid(16, 1600, distribution="cyclic")
        hot_ids = np.arange(64)  # roots concentrate at small values
        assert block.vec_counts(hot_ids).max() == 64  # all on rank 0
        assert cyclic.vec_counts(hot_ids).max() == 4  # perfectly spread


class TestCyclicLACC:
    @pytest.mark.parametrize("nodes", [1, 4])
    def test_correct_results(self, nodes):
        g = gen.component_mixture([15, 10, 5], seed=2)
        r = lacc_dist(
            g.to_matrix(), EDISON, nodes=nodes, vector_distribution="cyclic"
        )
        assert validate.same_partition(r.parents, validate.ground_truth(g))

    def test_deterministic(self):
        g = gen.erdos_renyi(100, 2.0, seed=3)
        a = lacc_dist(g.to_matrix(), EDISON, nodes=4, vector_distribution="cyclic")
        b = lacc_dist(g.to_matrix(), EDISON, nodes=4, vector_distribution="cyclic")
        assert a.simulated_seconds == b.simulated_seconds
