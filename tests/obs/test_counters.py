"""Counter correctness: primitive spans on small known inputs, and
end-to-end traces whose counters must sum to what LACCStats / the
CostModel report independently."""

import numpy as np
import pytest

import repro.graphblas as gb
from repro.core.lacc import lacc
from repro.core.lacc_dist import lacc_dist
from repro.core.stats import steps_from_span
from repro.graphblas import Matrix, Vector, semirings as sr
from repro.graphs import generators as gen
from repro.mpisim import EDISON
from repro.obs import Tracer, activate


def run_traced(driver, *args, **kwargs):
    """``(result, tracer)`` of *driver* under a fresh activated tracer."""
    tr = Tracer()
    with activate(tr):
        res = driver(*args, **kwargs)
    return res, tr


def traced(fn):
    tr = Tracer()
    with activate(tr):
        fn()
    assert len(tr.roots) == 1
    return tr.roots[0]


class TestPrimitiveCounters:
    # path 0-1-2-3 plus isolated vertex 4: degrees [1, 2, 2, 1, 0]
    def setup_method(self):
        self.A = Matrix.adjacency(5, [0, 1, 2], [1, 2, 3])

    def test_mxv_dense_input_spmv(self):
        u = Vector.dense(np.arange(5, dtype=np.int64))
        out = Vector.empty(5)
        sp = traced(lambda: gb.mxv(out, None, None, sr.SEL2ND_MIN_INT64, self.A, u))
        assert (sp.name, sp.cat) == ("mxv", "graphblas")
        assert sp.attrs["path"] == "spmv"
        assert sp.counters["nvals_in"] == 5
        # dense input: one multiply per stored edge endpoint
        assert sp.counters["flops"] == self.A.nvals == 6
        assert sp.counters["nvals_out"] == out.nvals == 4  # vertex 4 isolated

    def test_mxv_sparse_input_spmspv(self):
        # same path 0-1-2-3, but n=20 so one entry is below the 10%
        # density threshold that flips mxv to the SpMSpV kernel
        A = Matrix.adjacency(20, [0, 1, 2], [1, 2, 3])
        u = Vector.sparse(20, [1], [7])
        out = Vector.empty(20)
        sp = traced(lambda: gb.mxv(out, None, None, sr.SEL2ND_MIN_INT64, A, u))
        # the Select2nd multiply + min monoid hits the specialised
        # gather/packed-key kernel, recorded as its own path tag
        assert sp.attrs["path"] == "spmspv_sel2nd"
        assert sp.counters["nvals_in"] == 1
        # only column 1 participates: deg(1) = 2 multiplies
        assert sp.counters["flops"] == 2
        assert sp.counters["nvals_out"] == out.nvals == 2  # neighbours 0 and 2

    def test_ewise_mult_counts_intersection(self):
        u = Vector.sparse(5, [0, 1, 2], [1, 1, 1])
        v = Vector.sparse(5, [1, 2, 3], [1, 1, 1])
        out = Vector.empty(5)
        sp = traced(lambda: gb.ewise_mult(out, None, None, sr.SEL2ND_MIN_INT64, u, v))
        assert sp.counters["nvals_in"] == 6
        assert sp.counters["flops"] == 2  # indices {1, 2}
        assert sp.counters["nvals_out"] == out.nvals == 2

    def test_apply_span(self):
        u = Vector.sparse(5, [0, 2, 4], [1, 2, 3])
        out = Vector.empty(5)
        sp = traced(lambda: gb.apply(out, None, None, lambda x: x * 10, u))
        assert (sp.name, sp.cat) == ("apply", "graphblas")
        assert sp.counters["nvals_in"] == 3
        assert sp.counters["flops"] == 3  # one fn evaluation per element
        assert sp.counters["nvals_out"] == out.nvals == 3

    def test_select_span(self):
        u = Vector.sparse(6, [0, 1, 2, 3], [4, 7, 8, 1])
        out = Vector.empty(6)
        sp = traced(
            lambda: gb.select(out, None, None, lambda i, v: v % 2 == 0, u)
        )
        assert (sp.name, sp.cat) == ("select", "graphblas")
        assert sp.counters["nvals_in"] == 4
        assert sp.counters["flops"] == 4  # predicate sees every element
        assert sp.counters["nvals_out"] == out.nvals == 2  # values 4 and 8

    def test_masked_mxv_records_pushdown_path(self):
        # sparse structural mask over a dense input: the SpMV kernel
        # streams only the allowed rows and says so on the span
        from repro.graphblas.descriptor import Mask

        A = Matrix.adjacency(20, [0, 1, 2], [1, 2, 3])
        u = Vector.dense(np.arange(20, dtype=np.int64))
        mask = Mask(
            Vector.sparse(20, [2], np.ones(1, dtype=np.int64)), structural=True
        )
        out = Vector.empty(20)
        sp = traced(lambda: gb.mxv(out, mask, None, sr.SEL2ND_MIN_INT64, A, u))
        assert sp.attrs["path"] == "spmv_masked"
        # only row 2's edges (columns 1 and 3) are multiplied
        assert sp.counters["flops"] == 2
        assert out.nvals == 1

    def test_extract_and_assign(self):
        u = Vector.dense(np.arange(5, dtype=np.int64))
        out = Vector.empty(3)
        sp = traced(lambda: gb.extract(out, None, None, u, np.array([0, 2, 4])))
        assert (sp.name, sp.cat) == ("extract", "graphblas")
        assert sp.counters["nvals_out"] == 3

        w = Vector.dense(np.zeros(5, dtype=np.int64))
        src = Vector.dense(np.ones(2, dtype=np.int64))
        sp = traced(lambda: gb.assign(w, None, None, src, np.array([1, 3])))
        assert (sp.name, sp.cat) == ("assign", "graphblas")
        assert sp.counters["nvals_out"] == 2


class TestSerialTraceInvariants:
    @pytest.fixture(scope="class")
    def traced_run(self):
        g = gen.component_mixture([40, 25, 10], seed=3)
        return run_traced(lacc, g.to_matrix())

    def test_nesting_depth(self, traced_run):
        _, tr = traced_run
        # run -> iteration -> step -> primitive
        assert tr.max_depth() >= 4

    def test_one_iteration_span_per_iteration(self, traced_run):
        res, tr = traced_run
        its = tr.find("iteration", "iteration")
        assert len(its) == res.n_iterations
        assert [s.attrs["iteration"] for s in its] == list(
            range(1, res.n_iterations + 1)
        )

    def test_steps_nest_under_iterations(self, traced_run):
        _, tr = traced_run
        for step in tr.find(cat="step"):
            assert step.name in ("cond_hook", "starcheck", "uncond_hook", "shortcut")
        for it in tr.find("iteration"):
            names = [c.name for c in it.children if c.cat == "step"]
            assert names == [
                "cond_hook", "starcheck", "uncond_hook", "starcheck", "shortcut",
            ]

    def test_stats_are_a_view_over_the_spans(self, traced_run):
        res, tr = traced_run
        for it_span, it_stats in zip(tr.find("iteration"), res.stats.iterations):
            assert it_stats.step_seconds == steps_from_span(it_span)
            assert it_span.attrs["active_vertices"] == it_stats.active_vertices
            assert it_span.attrs["cond_hooks"] == it_stats.cond_hooks

    def test_primitive_spans_carry_counters(self, traced_run):
        _, tr = traced_run
        prims = tr.find(cat="graphblas")
        assert prims, "no GraphBLAS primitive spans recorded"
        assert all("nvals_out" in p.counters for p in prims)
        assert tr.counter_total("flops") > 0


class TestDistTraceInvariants:
    @pytest.fixture(scope="class")
    def traced_run(self):
        g = gen.component_mixture([40, 25, 10], seed=3)
        return run_traced(lacc_dist, g.to_matrix(), EDISON, nodes=4)

    def test_nesting_depth(self, traced_run):
        _, tr = traced_run
        # run -> iteration -> step -> combblas primitive -> collective
        assert tr.max_depth() >= 5

    def test_simulated_clock_span_extent(self, traced_run):
        res, tr = traced_run
        root = tr.roots[0]
        assert root.name == "lacc_dist"
        assert root.duration == pytest.approx(res.cost.total_seconds)

    def test_model_seconds_sum_to_cost_model(self, traced_run):
        res, tr = traced_run
        assert tr.counter_total("model_seconds") == pytest.approx(
            res.cost.total_seconds
        )

    def test_words_and_messages_sum_to_cost_model(self, traced_run):
        res, tr = traced_run
        assert tr.counter_total("words") == pytest.approx(res.cost.total_words)
        assert tr.counter_total("messages") == pytest.approx(
            res.cost.total_messages
        )

    def test_per_iteration_words_are_deltas(self, traced_run):
        res, _ = traced_run
        per_iter = [it.words_communicated for it in res.stats.iterations]
        assert min(per_iter) >= 0
        # rounded per-iteration deltas reassemble the run total
        assert abs(sum(per_iter) - res.cost.total_words) <= len(per_iter)
        # deltas, not a cumulative series: strictly increasing would only
        # happen if every iteration communicated more than the last
        assert per_iter != sorted(set(per_iter))

    def test_wall_seconds_ride_on_step_spans(self, traced_run):
        # the serial driver runs the same loop, with the same step spans
        serial = run_traced(
            lacc, gen.component_mixture([40, 25, 10], seed=3).to_matrix()
        )
        for _, tr in (traced_run, serial):
            steps = tr.find(cat="step")
            assert steps and all("wall_seconds" in s.counters for s in steps)
