"""Unit tests for :mod:`repro.obs.metrics` — registry semantics, the
null off switch, and the Prometheus / JSONL / Chrome-trace exports."""

import json
import math

import pytest

from repro.obs.metrics import (
    NULL_REGISTRY,
    Histogram,
    MetricRegistry,
    NullRegistry,
)
from repro.obs.tracer import activate, metrics_registry


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------
class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricRegistry()
        c = reg.counter("requests_total", op="read")
        c.inc()
        c.inc(2.5)
        assert reg.value("requests_total", op="read") == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricRegistry().counter("x").inc(-1)

    def test_counter_is_get_or_create(self):
        reg = MetricRegistry()
        a = reg.counter("x", op="r")
        b = reg.counter("x", op="r")
        assert a is b
        assert a is not reg.counter("x", op="w")
        assert len(reg) == 2

    def test_label_order_does_not_matter(self):
        reg = MetricRegistry()
        assert reg.counter("x", a="1", b="2") is reg.counter("x", b="2", a="1")

    def test_gauge_set_inc_dec(self):
        g = MetricRegistry().gauge("level")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == pytest.approx(13.0)

    def test_kind_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")
        # even under a fresh label set
        with pytest.raises(ValueError):
            reg.histogram("x", op="other")

    def test_histogram_statistics(self):
        h = MetricRegistry().histogram("sizes")
        for v in (1, 2, 3, 1000):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(1006.0)
        assert h.vmin == 1.0 and h.vmax == 1000.0
        assert h.mean == pytest.approx(251.5)

    def test_histogram_log2_buckets(self):
        # bucket 0 holds v <= 1; bucket i holds 2^(i-1) < v <= 2^i
        assert Histogram.bucket_index(0) == 0
        assert Histogram.bucket_index(1) == 0
        assert Histogram.bucket_index(2) == 1
        assert Histogram.bucket_index(3) == 2
        assert Histogram.bucket_index(4) == 2
        assert Histogram.bucket_index(1024) == 10
        assert Histogram.bucket_index(1025) == 11

    def test_histogram_bucket_bounds_ascending_and_complete(self):
        h = MetricRegistry().histogram("x")
        for v in (1, 3, 5, 5, 300):
            h.observe(v)
        bounds = h.bucket_bounds()
        assert bounds == sorted(bounds)
        assert sum(n for _, n in bounds) == h.count


# ---------------------------------------------------------------------------
# registry reading
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_iteration_is_deterministic(self):
        reg = MetricRegistry()
        reg.counter("b", x="2")
        reg.counter("b", x="1")
        reg.counter("a")
        names = [(m.name, m.labels) for m in reg]
        assert names == sorted(names)

    def test_find_and_total(self):
        reg = MetricRegistry()
        reg.counter("words", collective="bcast").inc(10)
        reg.counter("words", collective="allgather").inc(5)
        reg.counter("other").inc(99)
        assert len(reg.find("words")) == 2
        assert reg.total("words") == pytest.approx(15.0)
        assert reg.value("words", collective="missing") is None

    def test_snapshot_shapes(self):
        reg = MetricRegistry()
        reg.counter("c", op="r").inc(2)
        reg.histogram("h").observe(5)
        snap = {r["name"]: r for r in reg.snapshot()}
        assert snap["c"]["kind"] == "counter"
        assert snap["c"]["value"] == 2.0
        assert snap["c"]["labels"] == {"op": "r"}
        assert snap["h"]["count"] == 1
        assert snap["h"]["sum"] == 5.0
        assert snap["h"]["buckets"] == {"8": 1}

    def test_write_jsonl(self, tmp_path):
        reg = MetricRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(3)
        path = reg.write_jsonl(str(tmp_path / "m.jsonl"))
        recs = [json.loads(line) for line in open(path)]
        assert {r["name"] for r in recs} == {"c", "g"}


# ---------------------------------------------------------------------------
# prometheus exposition
# ---------------------------------------------------------------------------
class TestPrometheus:
    def test_counter_and_gauge_lines(self):
        reg = MetricRegistry()
        reg.counter("ops_total", "operations", op="mxv").inc(3)
        reg.gauge("level", "current level").set(1.5)
        text = reg.to_prometheus()
        assert "# HELP ops_total operations" in text
        assert "# TYPE ops_total counter" in text
        assert 'ops_total{op="mxv"} 3' in text
        assert "# TYPE level gauge" in text
        assert "level 1.5" in text
        assert text.endswith("\n")

    def test_histogram_exposition_is_cumulative(self):
        reg = MetricRegistry()
        h = reg.histogram("sz", "sizes")
        for v in (1, 2, 1000):
            h.observe(v)
        text = reg.to_prometheus()
        assert 'sz_bucket{le="1"} 1' in text
        assert 'sz_bucket{le="2"} 2' in text
        assert 'sz_bucket{le="1024"} 3' in text
        assert 'sz_bucket{le="+Inf"} 3' in text
        assert "sz_sum 1003" in text
        assert "sz_count 3" in text

    def test_label_escaping(self):
        reg = MetricRegistry()
        reg.counter("c", path='a"b\\c').inc()
        assert 'path="a\\"b\\\\c"' in reg.to_prometheus()

    def test_write_prometheus(self, tmp_path):
        reg = MetricRegistry()
        reg.counter("c").inc()
        path = reg.write_prometheus(str(tmp_path / "m.prom"))
        assert open(path).read() == reg.to_prometheus()

    def test_empty_registry_exposition(self):
        assert MetricRegistry().to_prometheus() == ""


# ---------------------------------------------------------------------------
# null off switch + activation
# ---------------------------------------------------------------------------
class TestNullAndActivation:
    def test_default_is_null(self):
        assert metrics_registry() is NULL_REGISTRY
        assert not metrics_registry()

    def test_null_registry_absorbs_everything(self):
        nr = NullRegistry()
        assert not nr
        assert not nr.enabled
        nr.counter("x", op="r").inc(5)
        nr.gauge("g").set(1)
        nr.histogram("h").observe(3)
        assert len(nr) == 0
        assert list(nr) == []
        assert nr.find("x") == []
        assert nr.value("x") is None
        assert nr.total("x") == 0.0
        assert nr.snapshot() == []
        assert nr.to_prometheus() == ""

    def test_null_instruments_are_shared_and_falsy(self):
        nr = NullRegistry()
        assert nr.counter("a") is nr.counter("b") is nr.histogram("c")
        assert not nr.counter("a")

    def test_activation_scopes_and_nests(self):
        outer, inner = MetricRegistry(), MetricRegistry()
        assert metrics_registry() is NULL_REGISTRY
        with activate(metrics=outer) as got:
            assert got is outer
            assert metrics_registry() is outer
            with activate(metrics=inner):
                assert metrics_registry() is inner
                metrics_registry().counter("seen").inc()
            assert metrics_registry() is outer
        assert metrics_registry() is NULL_REGISTRY
        assert inner.value("seen") == 1.0
        assert outer.value("seen") is None

    def test_activation_restores_on_exception(self):
        reg = MetricRegistry()
        with pytest.raises(RuntimeError):
            with activate(metrics=reg):
                raise RuntimeError("boom")
        assert metrics_registry() is NULL_REGISTRY

    def test_guarded_call_site_pattern(self):
        # the idiom every instrumented layer uses
        def instrumented():
            reg = metrics_registry()
            if reg:
                reg.counter("calls_total").inc()

        instrumented()  # off: no-op
        live = MetricRegistry()
        with activate(metrics=live):
            instrumented()
        assert live.value("calls_total") == 1.0


# ---------------------------------------------------------------------------
# wiring: a real run populates the registry coherently
# ---------------------------------------------------------------------------
class TestWiring:
    @pytest.fixture(scope="class")
    def run(self):
        from repro.core.lacc_dist import lacc_dist
        from repro.graphs.generators import rmat
        from repro.mpisim import EDISON

        A = rmat(10, edge_factor=8, seed=3).to_matrix()
        reg = MetricRegistry()
        with activate(metrics=reg):
            res = lacc_dist(A, EDISON, nodes=4)
        return reg, res

    def test_sim_totals_match_cost_model(self, run):
        reg, res = run
        assert reg.total("sim_words_total") == pytest.approx(res.cost.total_words)
        assert reg.total("sim_messages_total") == pytest.approx(
            res.cost.total_messages
        )
        assert reg.total("sim_model_seconds_total") == pytest.approx(
            res.cost.total_seconds, rel=1e-9
        )

    def test_lacc_iteration_metrics(self, run):
        reg, res = run
        assert reg.value("lacc_iterations_total", driver="dist") == float(
            res.n_iterations
        )
        hooks = sum(it.cond_hooks for it in res.stats.iterations)
        assert reg.value("lacc_hooks_total", driver="dist", kind="cond") == float(
            hooks
        )

    def test_graphblas_and_combblas_families_present(self, run):
        reg, _ = run
        assert reg.total("graphblas_ops_total") > 0
        assert reg.find("combblas_edges_per_rank")
        assert reg.value("combblas_load_imbalance", permuted="true") >= 1.0

    def test_serial_driver_labels(self):
        from repro.core import lacc
        from repro.graphs.generators import rmat

        A = rmat(8, edge_factor=8, seed=3).to_matrix()
        reg = MetricRegistry()
        with activate(metrics=reg):
            res = lacc(A)
        assert reg.value("lacc_iterations_total", driver="serial") == float(
            res.n_iterations
        )

    def test_chrome_trace_counter_ride_on(self):
        from repro.core import lacc
        from repro.graphs.generators import rmat
        from repro.obs import Tracer, chrome_trace

        A = rmat(8, edge_factor=8, seed=3).to_matrix()
        reg, tr = MetricRegistry(), Tracer()
        with activate(tr, metrics=reg):
            lacc(A)
        doc = chrome_trace(tr, registry=reg)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counters, "metric counter events must ride on the trace"
        by_name = {}
        for e in counters:
            by_name.setdefault(e["name"], []).append(e)
        series = by_name["lacc_iterations_total"]
        # zero sample at t=0 plus the final value at the end of the trace
        assert len(series) == 2
        assert series[0]["ts"] == 0.0
        assert list(series[1]["args"].values()) == [
            reg.value("lacc_iterations_total", driver="serial")
        ]


class TestMergeSnapshot:
    """Cross-process merge: each proc-backend worker ships a snapshot,
    the conductor folds it in with a ``rank`` label."""

    def _worker_snapshot(self):
        w = MetricRegistry()
        w.counter("rank_collectives_total", op="allgather").inc(3)
        w.gauge("rank_queue_depth").set(7)
        h = w.histogram("rank_frame_bytes")
        h.observe(10.0)
        h.observe(1000.0)
        return w.snapshot()

    def test_counters_accumulate_with_extra_label(self):
        root = MetricRegistry()
        snap = self._worker_snapshot()
        assert root.merge_snapshot(snap, rank="0") == 3
        root.merge_snapshot(snap, rank="1")
        assert root.value("rank_collectives_total", op="allgather", rank="0") == 3
        assert root.total("rank_collectives_total") == 6
        # label sets stay distinguishable per rank
        assert root.value("rank_queue_depth", rank="1") == 7

    def test_merging_twice_accumulates_counters_not_gauges(self):
        root = MetricRegistry()
        snap = self._worker_snapshot()
        root.merge_snapshot(snap, rank="0")
        root.merge_snapshot(snap, rank="0")
        assert root.value("rank_collectives_total", op="allgather", rank="0") == 6
        assert root.value("rank_queue_depth", rank="0") == 7  # last write wins

    def test_histograms_merge_counts_and_extremes(self):
        root = MetricRegistry()
        root.histogram("rank_frame_bytes", rank="0").observe(5.0)
        root.merge_snapshot(self._worker_snapshot(), rank="0")
        h = root.histogram("rank_frame_bytes", rank="0")
        assert h.count == 3
        assert h.vmin == 5.0 and h.vmax == 1000.0
        assert h.total == 1015.0

    def test_malformed_row_raises(self):
        root = MetricRegistry()
        with pytest.raises(ValueError, match="unknown kind"):
            root.merge_snapshot([{"name": "x", "kind": "summary", "value": 1}])
