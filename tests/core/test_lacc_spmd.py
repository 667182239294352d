"""Tests for the literal SPMD distributed LACC over SimComm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import lacc
from repro.core.lacc_2d import lacc_2d
from repro.core.lacc_spmd import _Block, lacc_spmd
from repro.faults import FaultPlan, preset
from repro.graphs import generators as gen
from repro.graphs import validate
from repro.mpisim import SimComm, backend
from repro.obs import Tracer, activate
from repro.obs.flight import FlightRecorder

from ..differential.corpus import FAMILIES, SEEDS, make_graph

CORPUS = [(fam, seed) for fam in FAMILIES for seed in SEEDS]


@pytest.mark.parametrize("ranks", [2, 3])
@pytest.mark.parametrize("family,seed", CORPUS, ids=[f"{f}-s{s}" for f, s in CORPUS])
def test_words_sent_equals_alltoallv_span_words(family, seed, ranks):
    """The driver's off-rank word count and the communicator's own
    accounting describe the same traffic, for ``lacc_spmd`` on *ranks*
    ranks and ``lacc_2d`` on ``ranks²``: every collective of the run is an
    ``alltoallv`` carrying ``words_sent`` in total, but the one convergence
    ``allreduce`` per iteration.  A FaultPlan's cursor counts each of
    them once: a rule-free plan's, and a process-fault plan's, whose
    ``stall`` (a collective that completes on the simulator) is drawn by
    the same one draw per collective."""
    g = make_graph(family, seed)
    for run, p in ((lacc_spmd, ranks), (lacc_2d, ranks * ranks)):
        for plan in (FaultPlan([]), preset("stall", after=3)):
            tr = Tracer()
            with backend.use("sim"), activate(tr):
                r = run(g, ranks=p, faults=plan)
            spans = tr.find(cat="simcomm")
            alltoallv = [sp for sp in spans if sp.name == "alltoallv"]
            others = [sp.name for sp in spans if sp.name != "alltoallv"]
            assert others == ["allreduce"] * r.n_iterations
            assert r.words_sent == sum(sp.counters.get("words", 0.0) for sp in alltoallv)
            assert plan.cursor == len(spans)
            assert plan.summary() == ({"stop": 1} if plan.rules else {})


def test_hook_write_assigns_the_min_proposal():
    """``_Block.hook`` assigns each root its smallest proposal over all
    ranks, also one larger than the root's own id (Algorithm 4 hooks
    against id order); the root's current parent takes no part."""
    blocks = [_Block(6, 2, r) for r in range(2)]
    f = [np.arange(6)[b.lo : b.hi].copy() for b in blocks]
    roots = [np.array([0, 0, 4]), np.array([0])]
    proposals = [np.array([5, 3, 1]), np.array([4])]
    hooked, _ = SimComm(2).run_ranks(
        [b.hook(*args) for b, *args in zip(blocks, f, roots, proposals)]
    )
    assert sum(hooked) == 2
    assert np.concatenate(f).tolist() == [3, 1, 2, 3, 1, 5]


@pytest.mark.parametrize("ranks", [2, 3])
def test_star_hooks_unconditionally_onto_vertex_zero(ranks):
    """The hook reply encodes a nonstar endpoint as ``~f``, so a nonstar
    whose parent is vertex 0 arrives as -1.  On the star centred at 2
    with leaves 0, 1, 3, the conditional hook makes 2 -> 0 and 3 -> 2, a
    nonstar tree rooted at 0; the star {1} then hooks unconditionally
    onto it through 2, whose reply word is ``~0``."""
    g = gen.EdgeList(4, [0, 1, 2], [2, 2, 3])
    serial_fr, spmd_fr = FlightRecorder(), FlightRecorder()
    with activate(flight=serial_fr):
        serial = lacc(g.to_matrix())
    with activate(flight=spmd_fr):
        r = lacc_spmd(g, ranks=ranks)
    assert r.parents.tolist() == serial.parents.tolist() == [0, 0, 0, 0]
    for fr in (serial_fr, spmd_fr):
        first = [e.data for e in fr.events if e.kind == "iteration"][0]
        assert (first["cond_hooks"], first["uncond_hooks"]) == (2, 1)
    assert r.n_iterations == serial.n_iterations


def test_2d_proc_run_uses_one_pool(monkeypatch):
    """On the proc backend, ``lacc_2d`` builds one communicator, so the
    only worker pool it starts is its own."""
    from repro.parallel import ProcComm, shutdown_pools
    from repro.parallel.pool import _POOLS

    sizes = []
    init = ProcComm.__init__

    def spy(self, size, *args, **kwargs):
        sizes.append(size)
        init(self, size, *args, **kwargs)

    monkeypatch.setattr(ProcComm, "__init__", spy)
    shutdown_pools()
    g = make_graph("skewed", 0)
    with backend.use("proc"):
        r = lacc_2d(g, ranks=4)
    assert sizes == [4]
    assert {size for size, _ in _POOLS} == {4}
    assert np.array_equal(r.parents, lacc(g.to_matrix()).parents)


class TestCorrectness:
    @pytest.mark.parametrize("ranks", [1, 2, 3, 4, 8])
    def test_matches_ground_truth(self, ranks):
        g = gen.component_mixture([30, 12, 5, 1, 20], seed=3)
        r = lacc_spmd(g, ranks=ranks)
        assert validate.same_partition(r.parents, validate.ground_truth(g))
        assert r.n_components == 5

    def test_matches_serial_lacc(self):
        g = gen.erdos_renyi(150, 2.0, seed=4)
        spmd = lacc_spmd(g, ranks=4)
        serial = lacc(g.to_matrix())
        assert validate.same_partition(spmd.parents, serial.parents)

    def test_single_rank_degenerates_to_serial(self):
        g = gen.path_graph(40)
        r = lacc_spmd(g, ranks=1)
        assert r.n_components == 1

    def test_empty_graph(self):
        r = lacc_spmd(gen.EdgeList(6, [], []), ranks=3)
        assert r.n_components == 6 and r.n_iterations == 0

    def test_zero_vertices(self):
        r = lacc_spmd(gen.EdgeList(0, [], []), ranks=2)
        assert r.n_components == 0

    def test_self_loops_ignored(self):
        g = gen.EdgeList(3, [0, 1], [0, 2])
        r = lacc_spmd(g, ranks=2)
        assert r.n_components == 2

    def test_ranks_validation(self):
        with pytest.raises(ValueError):
            lacc_spmd(gen.path_graph(4), ranks=0)

    def test_iteration_guard(self):
        with pytest.raises(RuntimeError):
            lacc_spmd(gen.path_graph(64), ranks=2, max_iterations=1)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.sampled_from([2, 3, 5]),
    )
    def test_fuzz(self, seed, ranks):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 70))
        m = int(rng.integers(0, 180))
        g = gen.EdgeList(n, rng.integers(0, n, m), rng.integers(0, n, m))
        r = lacc_spmd(g, ranks=ranks)
        assert validate.same_partition(r.parents, validate.ground_truth(g))


class TestDistributionProperties:
    def test_result_independent_of_rank_count(self):
        g = gen.erdos_renyi(120, 1.8, seed=6)
        results = [lacc_spmd(g, ranks=p).labels for p in (1, 2, 4, 6)]
        for other in results[1:]:
            np.testing.assert_array_equal(results[0], other)

    def test_words_zero_on_single_rank(self):
        g = gen.erdos_renyi(60, 3.0, seed=7)
        r = lacc_spmd(g, ranks=1)
        # all "communication" is rank 0 to itself: nothing crosses a rank
        assert r.words_sent == 0

    def test_words_grow_with_edges(self):
        small = gen.erdos_renyi(100, 1.0, seed=8)
        big = gen.erdos_renyi(100, 8.0, seed=8)
        ws = lacc_spmd(small, ranks=4).words_sent
        wb = lacc_spmd(big, ranks=4).words_sent
        assert wb > ws

    def test_iteration_count_logarithmic(self):
        g = gen.path_graph(256)
        r = lacc_spmd(g, ranks=4)
        assert r.n_iterations <= 2 * 8 + 4
