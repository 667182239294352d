"""Tests for graph generators, the Table III corpus, and validation
helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.union_find import count_components
from repro.graphs import corpus, generators as gen, validate
from repro.graphs.generators import RMAT_CHUNK_EDGES, rmat


class TestEdgeList:
    def test_basic(self):
        g = gen.EdgeList(3, [0, 1], [1, 2])
        assert g.n == 3 and g.nedges == 2

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gen.EdgeList(3, [0, 1], [1])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            gen.EdgeList(2, [0], [2])

    def test_to_matrix_symmetric(self):
        g = gen.EdgeList(3, [0], [1])
        m = g.to_matrix()
        assert m.is_symmetric and m.nvals == 2


class TestGenerators:
    def test_erdos_renyi_edge_count(self):
        g = gen.erdos_renyi(1000, 6.0, seed=0)
        assert abs(g.nedges - 3000) < 150  # self-loop removal only

    def test_erdos_renyi_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gen.erdos_renyi(0, 1.0)

    def test_erdos_renyi_deterministic(self):
        a = gen.erdos_renyi(100, 2.0, seed=5)
        b = gen.erdos_renyi(100, 2.0, seed=5)
        np.testing.assert_array_equal(a.u, b.u)

    def test_rmat_vertex_count(self):
        g = gen.rmat(8, 4, seed=1)
        assert g.n == 256

    def test_rmat_skewed_degrees(self):
        g = gen.rmat(10, 16, seed=2)
        deg = np.bincount(np.r_[g.u, g.v], minlength=g.n)
        # power-law-ish: max degree far above mean
        assert deg.max() > 8 * deg.mean()

    def test_rmat_invalid_probs(self):
        with pytest.raises(ValueError):
            gen.rmat(4, 4, a=0.5, b=0.3, c=0.3)

    def test_mesh3d_structure(self):
        g = gen.mesh3d(3, 4, 5)
        assert g.n == 60
        assert g.nedges == 2 * 4 * 5 + 3 * 3 * 5 + 3 * 4 * 4
        assert count_components(g.n, g.u, g.v) == 1

    def test_path_star_cycle_tree(self):
        assert gen.path_graph(5).nedges == 4
        assert gen.star_graph(5).nedges == 4
        assert gen.cycle_graph(5).nedges == 5
        assert gen.binary_tree(3).n == 15

    def test_path_rejects_zero(self):
        with pytest.raises(ValueError):
            gen.path_graph(0)

    def test_cycle_rejects_small(self):
        with pytest.raises(ValueError):
            gen.cycle_graph(2)

    def test_component_mixture_exact_count(self):
        sizes = [5, 1, 9, 3, 3]
        g = gen.component_mixture(sizes, seed=1)
        assert g.n == sum(sizes)
        assert count_components(g.n, g.u, g.v) == len(sizes)

    def test_component_mixture_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            gen.component_mixture([3, 0])

    def test_clustered_graph_many_components(self):
        g = gen.clustered_graph(50, 4.0, seed=2)
        assert count_components(g.n, g.u, g.v) == 50

    def test_clustered_graph_giant(self):
        g = gen.clustered_graph(20, 3.0, giant_fraction=0.5, seed=3)
        labels = validate.ground_truth(g)
        sizes = validate.component_sizes(labels)
        assert sizes[0] > 0.3 * g.n  # giant holds a large share

    def test_disjoint_union_offsets(self):
        g = gen.disjoint_union([gen.path_graph(3), gen.path_graph(4)])
        assert g.n == 7
        assert count_components(g.n, g.u, g.v) == 2

    def test_relabel_preserves_structure(self):
        g = gen.erdos_renyi(50, 2.0, seed=4)
        h = gen.relabel_random(g, seed=5)
        assert count_components(g.n, g.u, g.v) == count_components(h.n, h.u, h.v)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=15))
    def test_mixture_component_count_property(self, sizes):
        g = gen.component_mixture(sizes, seed=7)
        assert count_components(g.n, g.u, g.v) == len(sizes)


class TestChunkedRmat:
    def test_single_pass_stream_unchanged_below_chunk_limit(self):
        # the chunking refactor must not move the RNG stream for every
        # existing call site: m <= chunk_edges is the original single pass
        g = rmat(scale=8, edge_factor=8, seed=3)
        h = rmat(scale=8, edge_factor=8, seed=3, chunk_edges=RMAT_CHUNK_EDGES)
        np.testing.assert_array_equal(g.u, h.u)
        np.testing.assert_array_equal(g.v, h.v)

    @pytest.mark.parametrize("chunk_edges", [100, 1000, 2047])
    def test_chunked_path_is_deterministic_per_seed(self, chunk_edges):
        g = rmat(scale=8, edge_factor=8, seed=5, chunk_edges=chunk_edges)
        h = rmat(scale=8, edge_factor=8, seed=5, chunk_edges=chunk_edges)
        np.testing.assert_array_equal(g.u, h.u)
        np.testing.assert_array_equal(g.v, h.v)

    def test_chunked_edges_are_valid_and_complete(self):
        m = (1 << 8) * 8 // 2
        g = rmat(scale=8, edge_factor=8, seed=5, chunk_edges=300)
        # self-loops are dropped after generation; everything else survives
        assert 0 < g.u.size == g.v.size <= m
        assert g.n == 1 << 8
        for arr in (g.u, g.v):
            assert arr.dtype == np.int64
            assert arr.min() >= 0
            assert arr.max() < g.n

    def test_chunk_boundaries_do_not_bias_the_distribution(self):
        # same seed, different chunking: different streams, but the skew
        # (Graph500 a=0.57 favours low vertex ids) must survive chunking
        g = rmat(scale=10, edge_factor=16, seed=9, chunk_edges=977)
        low = (g.u < (1 << 9)).mean()
        assert low > 0.55  # a + b = 0.76 nominal; generous floor


class TestCorpus:
    def test_names(self):
        assert "archaea" in corpus.names()
        assert set(corpus.names(big=True)) == {"MOLIERE_2016", "Metaclust50", "iso_m100"}

    def test_load_unknown(self):
        with pytest.raises(KeyError):
            corpus.load("nope")

    def test_single_component_analogues(self):
        for name in ("queen_4147", "twitter7"):
            g = corpus.load(name)
            assert count_components(g.n, g.u, g.v) == 1, name

    def test_many_component_analogues(self):
        for name in ("archaea", "eukarya", "M3", "iso_m100"):
            g = corpus.load(name)
            ncc = count_components(g.n, g.u, g.v)
            assert ncc > 1000, (name, ncc)

    def test_m3_is_sparse(self):
        g = corpus.load("M3")
        avg_deg = 2 * g.nedges / g.n
        assert avg_deg < 4  # metagenome analogue: m/n ≈ 2

    def test_queen_is_dense(self):
        g = corpus.load("queen_4147")
        avg_deg = 2 * g.nedges / g.n
        assert avg_deg > 25

    def test_component_count_ordering_matches_paper(self):
        """eukarya > archaea components, as in Table III."""
        ark = count_components(*(lambda g: (g.n, g.u, g.v))(corpus.load("archaea")))
        euk = count_components(*(lambda g: (g.n, g.u, g.v))(corpus.load("eukarya")))
        assert euk > ark


class TestValidate:
    def test_canonical_labels(self):
        labels = np.array([7, 7, 3, 3, 7])
        np.testing.assert_array_equal(validate.canonical_labels(labels), [0, 0, 2, 2, 0])

    def test_same_partition_true(self):
        assert validate.same_partition(np.array([5, 5, 2]), np.array([0, 0, 9]))

    def test_same_partition_false(self):
        assert not validate.same_partition(np.array([0, 0, 1]), np.array([0, 1, 1]))

    def test_same_partition_shape_mismatch(self):
        assert not validate.same_partition(np.array([0]), np.array([0, 1]))

    def test_is_min_label(self):
        assert validate.is_min_label(np.array([0, 0, 2, 2]))
        assert not validate.is_min_label(np.array([1, 1, 2, 2]))

    def test_component_sizes_sorted(self):
        sizes = validate.component_sizes(np.array([0, 0, 0, 3, 3, 5]))
        np.testing.assert_array_equal(sizes, [3, 2, 1])

    def test_ground_truth_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        g = gen.erdos_renyi(80, 1.5, seed=9)
        gt = validate.ground_truth(g)
        nxg = g.to_networkx()
        assert nx.number_connected_components(nxg) == np.unique(gt).size
