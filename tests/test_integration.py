"""Cross-module integration scenarios: the workflows a downstream user
chains together, exercised end to end."""

import numpy as np
import pytest

from repro.baselines.parconnect import parconnect
from repro.core import lacc, spanning_forest
from repro.core.lacc_2d import lacc_2d
from repro.core.lacc_dist import lacc_dist
from repro.core.lacc_spmd import lacc_spmd
from repro.graphblas import serialize
from repro.graphs import corpus, generators as gen, io as gio, validate
from repro.graphs.analysis import summarize
from repro.mcl import cluster_network
from repro.mpisim import CORI_KNL, EDISON


class TestCorpusEndToEnd:
    """Every small corpus graph through the full algorithm stack."""

    @pytest.mark.parametrize("name", ["archaea", "queen_4147", "uk-2002"])
    def test_all_algorithms_agree_on_corpus(self, name):
        g = corpus.load(name)
        gt = validate.ground_truth(g)
        serial = lacc(g.to_matrix())
        assert validate.same_partition(serial.parents, gt)
        dist = lacc_dist(g.to_matrix(), EDISON, nodes=4)
        assert validate.same_partition(dist.parents, gt)
        pc = parconnect(g.n, g.u, g.v, EDISON, nodes=4)
        assert validate.same_partition(pc.parents, gt)

    def test_corpus_roundtrip_through_mtx(self, tmp_path):
        g = corpus.load("sk-2005")
        p = tmp_path / "g.mtx"
        gio.write_matrix_market(p, g)
        h = gio.read_matrix_market(p)
        assert lacc(h.to_matrix()).n_components == 45

    def test_summary_matches_lacc(self):
        g = corpus.load("MOLIERE_2016")
        s = summarize(g)
        res = lacc(g.to_matrix())
        assert s.n_components == res.n_components


class TestAssemblyPipeline:
    """Metagenome-style: components → per-component spanning trees →
    checkpoint → reload → identical."""

    def test_full_chain(self, tmp_path):
        g = gen.component_mixture([40, 25, 10, 5, 5], seed=8)
        res = lacc(g.to_matrix())
        sf = spanning_forest(g.to_matrix())
        assert validate.same_partition(res.parents, sf.parents)
        assert sf.is_spanning()

        ckpt = tmp_path / "graph.npz"
        serialize.save_matrix(ckpt, g.to_matrix())
        res2 = lacc(serialize.load_matrix(ckpt))
        np.testing.assert_array_equal(res.parents, res2.parents)

    def test_component_extraction_feeds_subproblems(self):
        """Labels partition the edges into independent subproblems whose
        local solutions recompose to the global one."""
        g = gen.component_mixture([20, 15, 8], seed=9)
        labels = lacc(g.to_matrix()).labels
        for lbl in np.unique(labels):
            members = np.flatnonzero(labels == lbl)
            sel = np.isin(g.u, members)
            # all edges of these vertices stay inside the component
            assert np.isin(g.v[sel], members).all()


class TestClusteringPipeline:
    def test_mcl_then_forest_per_cluster(self):
        """HipMCL then spanning trees of the cluster graphs."""
        rng = np.random.default_rng(10)
        n, u, v, w = 30, [], [], []
        for off in (0, 10, 20):
            for i in range(10):
                for j in range(i + 1, 10):
                    if rng.random() < 0.8:
                        u.append(off + i)
                        v.append(off + j)
                        w.append(1.0)
        res = cluster_network(n, np.array(u), np.array(v), np.array(w))
        assert res.n_clusters == 3
        # spanning forest of the full graph refines into the clusters
        sf = spanning_forest(gen.EdgeList(n, u, v).to_matrix())
        assert sf.n_components == 3


class TestMachineComparisons:
    def test_same_labels_on_both_machines(self):
        g = gen.erdos_renyi(150, 2.5, seed=11)
        a = lacc_dist(g.to_matrix(), EDISON, nodes=4)
        b = lacc_dist(g.to_matrix(), CORI_KNL, nodes=4)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.simulated_seconds != b.simulated_seconds  # different pricing

    def test_execution_ladder_on_one_graph(self):
        """All four execution models on a corpus graph: identical labels."""
        g = corpus.load("sk-2005")
        serial = lacc(g.to_matrix()).labels
        dist = lacc_dist(g.to_matrix(), EDISON, nodes=4).labels
        spmd = lacc_spmd(g, ranks=4).labels
        grid2 = lacc_2d(g, ranks=4).labels
        for other in (dist, spmd, grid2):
            np.testing.assert_array_equal(serial, other)
