"""Process-fault plans: kinds, presets, seeded determinism.

The ``PROC_FAULT_KINDS`` integrate with the FaultPlan machinery (rule
fields, ``FaultCall.proc()``, the ``from_json`` round-trip of injection
logs), their presets live in the one :data:`repro.faults.PRESETS`
table, the backoff jitter is deterministic per ``(seed, call,
attempt)``, and process-fault victims derive from the seed alone.
"""

from __future__ import annotations

import pytest

from repro.faults import (
    PROC_FAULT_KINDS,
    PROC_PRESETS,
    CollectiveError,
    FaultPlan,
    FaultRule,
    preset,
)
from repro.mpisim.envelope import chaos_victim


class TestProcFaultKinds:
    def test_proc_kinds_are_registered(self):
        from repro.faults.plan import FAULT_KINDS

        assert PROC_FAULT_KINDS == ("kill", "stop", "exit", "frame")
        for k in PROC_FAULT_KINDS:
            assert k in FAULT_KINDS

    def test_rule_accepts_rank_and_stall_seconds(self):
        r = FaultRule(kind="stop", rank=2, stall_seconds=0.5)
        assert r.rank == 2 and r.stall_seconds == 0.5

    def test_rule_validates_rank_and_stall_seconds(self):
        with pytest.raises(ValueError):
            FaultRule(kind="kill", rank=-1)
        with pytest.raises(ValueError):
            FaultRule(kind="stop", stall_seconds=0.0)

    def test_proc_kinds_never_reach_data_delivery(self):
        """active() must exclude proc kinds — they are not payload faults
        the envelope could apply to buffers."""
        plan = FaultPlan([FaultRule(kind="kill", max_injections=1)], seed=0)
        call = plan.begin_call("allreduce")
        assert [r.kind for r in call.proc()] == ["kill"]
        assert call.active(0) == []

    def test_fault_call_proc_selects_only_proc_kinds(self):
        plan = FaultPlan(
            [
                FaultRule(kind="kill", max_injections=1),
                FaultRule(kind="corrupt", probability=1.0),
            ],
            seed=0,
        )
        call = plan.begin_call("allreduce")
        assert [r.kind for r in call.proc()] == ["kill"]
        assert [r.kind for r in call.active(0)] == ["corrupt"]


class TestInjectionLogRoundTrip:
    def _fired_plan(self, kind: str) -> FaultPlan:
        kw = {"stall_seconds": 0.25} if kind == "stop" else {}
        plan = FaultPlan(
            [FaultRule(kind=kind, max_injections=1, rank=1, **kw)], seed=9
        )
        call = plan.begin_call("alltoallv")
        (rule,) = call.proc()
        call.record(rule, 0, 1, f"test {kind}")
        return plan

    @pytest.mark.parametrize("kind", PROC_FAULT_KINDS)
    def test_proc_kind_log_round_trips_byte_for_byte(self, kind):
        plan = self._fired_plan(kind)
        text = plan.to_json()
        replay = FaultPlan.from_json(text)
        assert replay.to_json() == text
        assert replay.summary() == {kind: 1}
        assert replay.n_calls == plan.n_calls

    def test_chaos_run_log_is_seed_reproducible(self):
        a = preset("kill", seed=4, after=2)
        b = preset("kill", seed=4, after=2)
        for plan in (a, b):
            for _ in range(3):
                call = plan.begin_call("alltoallv")
                for rule in call.proc():
                    victim = chaos_victim(plan, call.index, 4)
                    call.record(rule, 0, victim, f"kill rank {victim}")
        assert a.to_json() == b.to_json()
        assert a.summary() == {"kill": 1}


class TestPresets:
    def test_every_preset_builds(self):
        for name in PROC_PRESETS:
            plan = preset(name, seed=1, after=3)
            assert plan.rules and plan.name == name
            assert all(r.kind in PROC_FAULT_KINDS for r in plan.rules)

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown fault preset"):
            preset("nope")

    def test_kill_fires_exactly_at_after(self):
        plan = preset("kill", seed=0, after=3)
        fired = []
        for i in range(6):
            fired.extend((i, r.kind) for r in plan.begin_call("x").proc())
        assert fired == [(2, "kill")]  # 3rd call, once, never again

    def test_shrink_preset_fires_two_kills(self):
        plan = preset("shrink", seed=0, after=2, gap=3)
        fired = []
        for i in range(10):
            fired.extend(i for r in plan.begin_call("x").proc())
        assert fired == [1, 4]

    def test_stall_preset_carries_duration(self):
        plan = preset("stall", seed=0, after=1, stall_seconds=2.5)
        (rule,) = plan.begin_call("x").proc()
        assert rule.kind == "stop" and rule.stall_seconds == 2.5


class TestChaosVictim:
    def test_deterministic_in_seed_and_call(self):
        plan = preset("kill", seed=11)
        assert chaos_victim(plan, 5, 4) == chaos_victim(plan, 5, 4)

    def test_spreads_across_calls_and_seeds(self):
        plan = preset("kill", seed=11)
        victims = {chaos_victim(plan, c, 4) for c in range(8)}
        assert len(victims) > 1
        other = preset("kill", seed=12)
        assert any(
            chaos_victim(plan, c, 4) != chaos_victim(other, c, 4)
            for c in range(8)
        )

    def test_always_in_range(self):
        plan = preset("kill", seed=3)
        for size in (1, 2, 3, 4, 9):
            for c in range(20):
                assert 0 <= chaos_victim(plan, c, size) < size


class TestBackoffJitter:
    def test_deterministic_per_seed_call_attempt(self):
        a = FaultPlan([], seed=7).begin_call("x")
        b = FaultPlan([], seed=7).begin_call("x")
        assert a.backoff_jitter(1) == b.backoff_jitter(1)
        assert a.backoff_jitter(2) == b.backoff_jitter(2)

    def test_varies_with_seed_call_and_attempt(self):
        plan = FaultPlan([], seed=7)
        c0, c1 = plan.begin_call("x"), plan.begin_call("x")
        assert c0.backoff_jitter(1) != c1.backoff_jitter(1)
        assert c0.backoff_jitter(1) != c0.backoff_jitter(2)
        other = FaultPlan([], seed=8).begin_call("x")
        assert c0.backoff_jitter(1) != other.backoff_jitter(1)

    def test_multiplier_never_shrinks_the_backoff(self):
        """Jitter in [1, 2): timing lower bounds (sleep >= backoff_base)
        stay valid, and one doubling step is never exceeded."""
        plan = FaultPlan([], seed=0)
        for _ in range(50):
            call = plan.begin_call("x")
            for attempt in (1, 2, 3):
                m = call.backoff_jitter(attempt)
                assert 1.0 <= m < 2.0


class TestCollectiveErrorSurface:
    def test_lost_ranks_carried_and_verdict_names_them(self):
        err = CollectiveError("allreduce", 1, ["rank_lost"], lost_ranks=[2, 0])
        assert err.lost_ranks == (2, 0)
        assert "permanently lost" in str(err)
        assert "2" in str(err)

    def test_deadline_exceeded_verdict(self):
        err = CollectiveError("bcast", 1, ["deadline_exceeded"])
        assert "deadline" in str(err)
        assert err.lost_ranks == ()
