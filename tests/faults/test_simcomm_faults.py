"""The SimComm retry-with-validation envelope under injected faults."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import CollectiveError, FaultPlan, FaultRule, preset
from repro.mpisim import CostModel, SimComm
from repro.mpisim.machine import LAPTOP, MachineModel
from repro.obs import Tracer, activate


def _bufs(p=3, k=4):
    return [np.arange(r * k, (r + 1) * k, dtype=np.int64) for r in range(p)]


class TestTransientRecovery:
    @pytest.mark.parametrize("kind", ["truncate", "corrupt", "duplicate", "zero"])
    def test_each_data_kind_heals(self, kind):
        plan = FaultPlan([FaultRule(kind=kind, attempts=1)], seed=2)
        comm = SimComm(3, faults=plan)
        out = comm.allgather(_bufs())
        want = np.concatenate(_bufs())
        for got in out:
            np.testing.assert_array_equal(got, want)
        assert plan.n_injected > 0

    def test_transient_fail_heals_within_budget(self):
        plan = FaultPlan([FaultRule(kind="fail", attempts=2)], seed=0, max_retries=3)
        comm = SimComm(2, faults=plan)
        out = comm.bcast([np.arange(5), None], root=0)
        np.testing.assert_array_equal(out[1], np.arange(5))

    def test_retries_surface_in_span_counters(self):
        plan = FaultPlan([FaultRule(kind="corrupt", attempts=2)], seed=1)
        tr = Tracer()
        with activate(tr):
            SimComm(3, faults=plan).allgather(_bufs())
        (sp,) = tr.find("allgather", "simcomm")
        assert sp.counters["retries"] == 2.0
        assert sp.counters["delivery_attempts"] == 3.0
        assert sp.counters["faults_detected"] == 2.0
        assert len(tr.find("retry", "fault")) == 2

    def test_fault_free_run_has_no_envelope_counters(self):
        """Without a plan the envelope short-circuits: no attempt
        bookkeeping, no retry spans — tracing stays lean."""
        tr = Tracer()
        with activate(tr):
            SimComm(3).allgather(_bufs())
        (sp,) = tr.find("allgather", "simcomm")
        assert "retries" not in sp.counters
        assert "faults_detected" not in sp.counters
        assert tr.find("retry", "fault") == []

    def test_clean_call_under_plan_counts_one_attempt(self):
        """A plan that fires on this call but heals immediately reports
        the delivery bookkeeping."""
        plan = FaultPlan([FaultRule(kind="corrupt", probability=0.0)], seed=0)
        tr = Tracer()
        with activate(tr):
            SimComm(3, faults=plan).allgather(_bufs())
        (sp,) = tr.find("allgather", "simcomm")
        # rule never fires → call is falsy → envelope short-circuits too
        assert "faults_detected" not in sp.counters
        assert plan.n_calls == 1 and plan.n_injected == 0


class TestPermanentFailure:
    def test_permanent_fault_raises_typed_error(self):
        plan = preset("permanent", seed=0, after=1)
        comm = SimComm(3, faults=plan)
        with pytest.raises(CollectiveError) as exc:
            comm.allgather(_bufs())
        e = exc.value
        assert e.collective == "allgather"
        assert e.attempts == plan.max_retries + 1
        assert "corrupt" in e.kinds
        assert isinstance(e, RuntimeError)

    def test_zero_retry_budget_fails_on_first_fault(self):
        plan = FaultPlan([FaultRule(kind="zero", attempts=1)], seed=0, max_retries=0)
        with pytest.raises(CollectiveError):
            SimComm(2, faults=plan).allgather(_bufs(2))


class TestPricing:
    def test_backoff_accumulates_without_cost_model(self):
        """With no cost model the backoff base is the MachineModel
        default; jitter only ever stretches it."""
        plan = FaultPlan([FaultRule(kind="corrupt", attempts=1)], seed=0)
        comm = SimComm(3, faults=plan)
        comm.allgather(_bufs())
        assert comm.fault_seconds >= MachineModel.retry_backoff_base > 0

    def test_retransmission_charged_to_cost_model(self):
        cost = CostModel(LAPTOP, 4, 1)
        clean_comm = SimComm(4, cost=CostModel(LAPTOP, 4, 1))
        clean_comm.allgather(_bufs(4))
        clean = clean_comm.cost.total_seconds

        plan = FaultPlan([FaultRule(kind="corrupt", attempts=1)], seed=0)
        comm = SimComm(4, faults=plan, cost=cost)
        comm.allgather(_bufs(4))
        # one retransmission ≈ doubles the comm charge, plus backoff
        assert cost.total_seconds > 1.5 * clean
        assert comm.fault_seconds == 0.0  # priced properly, not pooled

    def test_straggler_priced_at_delay_factor(self):
        """A delay-factor-f straggler charges exactly (f-1)× the α–β
        price of the payload it slowed down.  (SimComm charges only the
        fault *excess* — the clean collective's own price is the analytic
        layer's job.)"""
        factor = 4.0
        plan = FaultPlan([FaultRule(kind="delay", delay_factor=factor)], seed=0)
        cost = CostModel(LAPTOP, 4, 1)
        comm = SimComm(4, faults=plan, cost=cost)
        comm.allgather(_bufs(4))
        # allgather over p=4 ranks of 4 words: 16·(p-1) words, p·(p-1) msgs
        want = (factor - 1.0) * CostModel(LAPTOP, 4, 1).comm_seconds(48, 12)
        assert cost.total_seconds == pytest.approx(want)


class TestScattervValidation:
    """The satellite fix: contiguous-rank-id validation with clear errors."""

    def test_wrong_chunk_count_names_the_contract(self):
        comm = SimComm(4)
        with pytest.raises(ValueError, match=r"contiguous 0\.\.3"):
            comm.scatter([np.zeros(1)] * 3, root=0)

    def test_alltoallv_row_length_names_the_contract(self):
        comm = SimComm(3)
        bad = [[np.zeros(1)] * 3, [np.zeros(1)] * 2, [np.zeros(1)] * 3]
        with pytest.raises(ValueError, match=r"contiguous ranks 0\.\.2"):
            comm.alltoallv(bad)

    def test_per_rank_form_requires_none_off_root(self):
        comm = SimComm(3)
        chunks = [None, [np.zeros(1)] * 3, [np.zeros(1)] * 3]
        with pytest.raises(ValueError, match="non-root rank"):
            comm.scatter(chunks, root=1)

    def test_per_rank_form_works(self):
        comm = SimComm(3)
        payload = [np.full(2, r) for r in range(3)]
        out = comm.scatter([None, payload, None], root=1)
        for r in range(3):
            np.testing.assert_array_equal(out[r], payload[r])

    def test_root_out_of_range(self):
        comm = SimComm(3)
        with pytest.raises(ValueError):
            comm.bcast([np.zeros(1)] * 3, root=3)
        with pytest.raises(ValueError):
            comm.bcast([np.zeros(1)] * 3, root=-1)


class TestAnalyticCollectives:
    """The α–β pricing layer honours the same plan semantics."""

    def test_transient_fail_prices_retries(self):
        from repro.mpisim import collectives

        plan = FaultPlan([FaultRule(kind="fail", attempts=1)], seed=0)
        c_faulted = CostModel(LAPTOP, 16, 4, faults=plan)
        collectives.allgather(c_faulted, 16, 1000.0)
        c_clean = CostModel(LAPTOP, 16, 4)
        collectives.allgather(c_clean, 16, 1000.0)
        assert c_faulted.total_seconds > c_clean.total_seconds
        assert plan.n_injected > 0

    def test_permanent_raises_in_analytic_layer(self):
        from repro.mpisim import collectives

        plan = preset("permanent", seed=0, after=1)
        cost = CostModel(LAPTOP, 16, 4, faults=plan)
        with pytest.raises(CollectiveError):
            collectives.bcast(cost, 16, 100.0)

    def test_delay_prices_exact_factor(self):
        from repro.mpisim import collectives

        plan = FaultPlan([FaultRule(kind="delay", delay_factor=3.0)], seed=0)
        c_faulted = CostModel(LAPTOP, 16, 4, faults=plan)
        collectives.bcast(c_faulted, 16, 1000.0)
        c_clean = CostModel(LAPTOP, 16, 4)
        collectives.bcast(c_clean, 16, 1000.0)
        assert c_faulted.total_seconds == pytest.approx(3.0 * c_clean.total_seconds)
