"""Tests for :mod:`repro.obs.analytics` — λ per step, phase kind split,
straggler attribution, and the report's renderings."""

import json

import numpy as np
import pytest

from repro.core.lacc_dist import grid_for, lacc_dist
from repro.core.lacc_spmd import lacc_spmd
from repro.combblas.distmatrix import DistMatrix
from repro.faults import preset
from repro.graphs.generators import rmat
from repro.mpisim import EDISON, CostModel
from repro.mpisim.grid import ProcessGrid
from repro.obs.analytics import AnalyticsReport, StepImbalance, analyze


@pytest.fixture(scope="module")
def A():
    return rmat(10, edge_factor=8, seed=3).to_matrix()


@pytest.fixture(scope="module")
def traced(A):
    return lacc_dist(A, EDISON, nodes=4, trace_comm=True)


@pytest.fixture(scope="module")
def report(traced):
    return analyze(traced)


class TestStepImbalance:
    def test_lambda_matches_routing_reports(self, traced, report):
        # recompute λ for one step directly from the raw routing records
        step = report.steps[0].step
        agg = np.sum(
            [r.received_per_rank for _, s, r in traced.routing if s == step],
            axis=0,
        ).astype(float)
        assert report.steps[0].lam == pytest.approx(agg.max() / agg.mean())
        assert report.steps[0].total_requests == pytest.approx(agg.sum())
        assert report.steps[0].worst_rank == int(np.argmax(agg))

    def test_steps_cover_routing_steps(self, traced, report):
        assert {s.step for s in report.steps} == {s for _, s, _ in traced.routing}

    def test_lambda_at_least_one(self, report):
        for s in report.steps:
            assert s.lam >= 1.0
            assert 0.0 <= s.idle_fraction < 1.0
            assert 0.0 <= s.worst_share <= 1.0

    def test_idle_fraction_formula(self):
        s = StepImbalance(step="x", calls=1, total_requests=10.0, lam=4.0,
                          worst_rank=0, worst_share=0.4)
        assert s.idle_fraction == pytest.approx(0.75)


class TestPhaseBreakdown:
    def test_phase_seconds_match_cost_model(self, traced, report):
        by_phase = {p.phase: p for p in report.phases}
        for name, secs in traced.cost.phase_seconds().items():
            assert by_phase[name].seconds == pytest.approx(secs)

    def test_kind_split_partitions_phase_seconds(self, traced, report):
        assert report.from_event_trace
        for p in report.phases:
            assert (
                p.compute_seconds + p.comm_seconds + p.delay_seconds
                == pytest.approx(p.seconds, rel=1e-9)
            )
            assert p.delay_seconds == 0.0  # no faults injected

    def test_untraced_fallback_still_partitions(self, A):
        res = lacc_dist(A, EDISON, nodes=4)
        rep = analyze(res)
        assert not rep.from_event_trace
        for p in rep.phases:
            assert p.compute_seconds >= 0 and p.comm_seconds >= 0
            assert p.compute_seconds + p.comm_seconds == pytest.approx(
                p.seconds, rel=1e-9
            )

    def test_traced_and_untraced_agree_on_totals(self, A, traced):
        rep_t = analyze(traced)
        rep_u = analyze(lacc_dist(A, EDISON, nodes=4))
        assert rep_u.model_seconds == pytest.approx(rep_t.model_seconds)
        assert rep_u.overall_lambda == pytest.approx(rep_t.overall_lambda)


class TestReport:
    def test_overall_lambda_is_request_weighted(self, report):
        tot = sum(s.total_requests for s in report.steps)
        expect = sum(s.lam * s.total_requests for s in report.steps) / tot
        assert report.overall_lambda == pytest.approx(expect)

    def test_worst_step(self, report):
        assert report.worst_step.lam == max(s.lam for s in report.steps)

    def test_edges_lambda(self, A, traced):
        ranks, _side = grid_for(EDISON, 4)
        dm = DistMatrix(A, ProcessGrid(ranks, A.nrows))
        rep = analyze(traced, edges_per_rank=dm.edges_per_rank)
        assert rep.edges_lambda == pytest.approx(dm.load_imbalance())

    def test_to_dict_round_trips_through_json(self, report):
        d = json.loads(json.dumps(report.to_dict()))
        assert d["machine"] == "Edison"
        assert d["ranks"] == report.ranks
        assert len(d["steps"]) == len(report.steps)
        assert d["steps"][0]["lambda"] == pytest.approx(report.steps[0].lam)
        shares = [p["share"] for p in d["phases"]]
        assert sum(shares) == pytest.approx(1.0)

    def test_render_mentions_key_facts(self, report):
        text = report.render()
        assert "nodes=4" in text
        for s in report.steps:
            assert s.step in text
        if report.worst_step.lam > 1.0:
            assert "straggler" in text

    def test_render_empty_routing(self):
        rep = AnalyticsReport(machine="Edison", nodes=1, ranks=1,
                              n_iterations=0, model_seconds=0.0)
        text = rep.render()
        assert "no routed requests" in text
        assert rep.overall_lambda == 1.0
        assert rep.worst_step is None


class TestUnanalyzableResults:
    """Serial and unpriced literal-SPMD results carry no α–β cost data;
    analyze() must refuse them with a clear error, not an AttributeError."""

    def test_result_without_cost_rejected(self):
        res = lacc_spmd(rmat(6, edge_factor=4, seed=3), ranks=2)
        assert res.cost is None
        with pytest.raises(ValueError, match="no cost model"):
            analyze(res)

    def test_spmd_result_carries_its_cost_model(self):
        """A literal run given a cost model returns that model, and its
        simulated clock is the model's."""
        cost = CostModel(EDISON, 2, 1)
        res = lacc_spmd(rmat(6, edge_factor=4, seed=3), ranks=2, cost=cost,
                        faults=preset("flaky", seed=1))
        assert res.cost is cost
        assert res.simulated_seconds == cost.total_seconds > 0
        assert res.fault_seconds == 0.0  # priced by the model, not pooled

    def test_serial_lacc_result_rejected(self):
        from repro.core import lacc

        res = lacc(rmat(6, edge_factor=4, seed=3).to_matrix())
        with pytest.raises(ValueError, match="no cost model"):
            analyze(res)


class TestAnalyzeProc:
    """Measured-proc attribution from synthetic worker timelines — unit
    coverage of :func:`analyze_proc` without forking real processes."""

    def _obs(self):
        from repro.obs.tracer import Tracer
        from repro.parallel.obsband import RankObsResult

        def lane(busy):
            """One rank's timeline: one starcheck collective whose span
            lasts *busy* seconds, of which 0.1 is send and 0.2 is recv."""
            t = iter([
                0.0,          # collective B
                0.0, 0.1,     # ring_send B/E
                0.1, 0.3,     # ring_recv B/E
                busy,         # collective E
            ])
            tr = Tracer(clock=lambda: next(t))
            with tr.span("allgather", "collective", iteration=1,
                         step="starcheck", call=1):
                with tr.span("ring_send", "rank", dst=1) as sp:
                    sp.add("bytes", 100)
                with tr.span("ring_recv", "rank", src=1) as sp:
                    sp.add("bytes", 400)
            return tr

        return RankObsResult(
            size=2,
            tracers={0: lane(1.0), 1: lane(0.5)},
        )

    def test_lambda_is_max_over_mean_measured_seconds(self):
        from repro.obs.analytics import analyze_proc

        rep = analyze_proc(self._obs(), n_iterations=1)
        assert rep.source == "measured-proc"
        assert rep.machine == "proc-shm" and rep.ranks == 2
        (step,) = rep.steps
        assert step.step == "starcheck"
        assert step.lam == pytest.approx(1.0 / 0.75)  # max=1.0, mean=0.75
        assert step.worst_rank == 0
        assert step.total_requests == 800  # received bytes, both ranks

    def test_phase_split_is_exact_compute_comm_wait(self):
        from repro.obs.analytics import analyze_proc

        rep = analyze_proc(self._obs(), n_iterations=1)
        (ph,) = rep.phases
        assert ph.comm_seconds == pytest.approx(0.1)   # mean ring_send
        assert ph.delay_seconds == pytest.approx(0.2)  # mean ring_recv
        assert ph.seconds == pytest.approx(0.75)       # mean span length
        assert ph.compute_seconds == pytest.approx(0.75 - 0.3)

    def test_render_says_measured(self):
        from repro.obs.analytics import analyze_proc

        out = analyze_proc(self._obs(), n_iterations=1).render()
        assert "measured wall time" in out
        assert "measured rank-seconds" in out
        assert "wait%" in out

    def test_empty_obs_rejected(self):
        from repro.obs.analytics import analyze_proc
        from repro.parallel.obsband import RankObsResult

        with pytest.raises(ValueError):
            analyze_proc(RankObsResult(size=0))
