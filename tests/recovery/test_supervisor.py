"""Supervisor: the run → audit → repair → rollback → degrade state machine.

Acceptance contract (docs/ROBUSTNESS.md): a crash fault injected at any
point of any driver must leave the supervised labels **identical** to the
union–find oracle; budget exhaustion degrades to a serial replay instead
of failing; a zero-fault supervised run stays within 5% of the bare
driver.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.baselines import union_find
from repro.core.lacc import lacc
from repro.core.lacc_2d import lacc_2d
from repro.core.lacc_dist import lacc_dist
from repro.core.lacc_spmd import lacc_spmd
from repro.faults import FaultPlan, FaultRule, preset
from repro.graphs import generators as gen
from repro.mpisim.machine import LAPTOP
from repro.obs import Tracer, activate, chrome_trace
from repro.obs.flight import FlightRecorder, read_flight_jsonl
from repro.recovery import (
    MemoryCheckpointStore,
    RecoveryExhausted,
    Supervisor,
    SupervisorConfig,
)
from repro.runner import run_driver


def oracle_labels(g):
    return union_find.connected_components(g.n, g.u, g.v)


def all_spans(tracer):
    out, stack = [], list(tracer.roots)
    while stack:
        sp = stack.pop()
        out.append(sp)
        stack.extend(sp.children)
    return out


def record_rows(events):
    """``(action, iteration, detail)`` of each recovery-record row."""
    return [(e.action, e.iteration, e.detail) for e in events]


def flight_rows(flight_events):
    """The same triple, read from the flight record's ``recovery`` events."""
    return [
        (ev.data["action"], ev.iteration, ev.data["detail"])
        for ev in flight_events
        if ev.kind == "recovery"
    ]


def multi_iter_graph(seed=0):
    """A path needs ~log2(n) iterations — room for mid-run crashes."""
    return gen.path_graph(300, name=f"path_s{seed}")


class TestCleanRuns:
    def test_serial_clean(self):
        g = gen.component_mixture([50, 30, 7], seed=1)
        A = g.to_matrix()
        res = Supervisor().run(lacc, A)
        np.testing.assert_array_equal(res.labels, oracle_labels(g))
        assert res.attempts == 1 and not res.degraded
        assert res.events == []
        assert res.n_recoveries == 0

    def test_checkpoints_written_every_iteration(self):
        g = multi_iter_graph()
        store = MemoryCheckpointStore()
        res = Supervisor(store=store).run(lacc_spmd, g, ranks=3)
        assert res.checkpoints_written == len(store) > 1

    def test_checkpoint_interval(self):
        g = multi_iter_graph()
        store = MemoryCheckpointStore()
        cfg = SupervisorConfig(checkpoint_interval=2)
        Supervisor(store=store, config=cfg).run(lacc_spmd, g, ranks=3)
        assert all(it % 2 == 0 for it in store.iterations())

    def test_user_hook_chained(self):
        g = multi_iter_graph()
        seen = []
        res = Supervisor().run(
            lacc, g.to_matrix(), on_iteration=lambda s: seen.append(s.iteration)
        )
        assert len(seen) >= res.n_iterations - 1
        assert seen == sorted(seen)

    def test_unsupervisable_driver_rejected(self):
        with pytest.raises(TypeError, match="not supervisable"):
            Supervisor().run(lambda A: None, None)

    def test_zero_fault_overhead_under_5pct(self):
        # MemoryCheckpointStore, no faults: supervision must cost <5%
        g = gen.rmat(13, edge_factor=8, seed=5)
        A = g.to_matrix()
        lacc(A)  # warm caches
        bare_times, sup_times = [], []
        sup = Supervisor(config=SupervisorConfig(checkpoint_interval=0))
        for _ in range(3):  # interleave so drift hits both sides
            t0 = time.perf_counter()
            lacc(A)
            bare_times.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            sup.run(lacc, A)
            sup_times.append(time.perf_counter() - t0)
        bare, supd = min(bare_times), min(sup_times)
        # 5% relative plus an absolute floor against scheduler noise
        assert supd <= bare * 1.05 + 0.050, (bare, supd)


class TestCrashRecovery:
    """One dead rank must never change the answer."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spmd_crash(self, seed):
        g = multi_iter_graph(seed)
        plan = preset("crash", seed=seed, after=10 + 7 * seed)
        res = Supervisor().run(lacc_spmd, g, ranks=3, faults=plan)
        np.testing.assert_array_equal(res.labels, oracle_labels(g))
        assert res.n_recoveries == 1 and not res.degraded
        assert [e.action for e in res.events] == ["fault", "audit_repair"]
        assert res.attempts == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_2d_crash(self, seed):
        g = multi_iter_graph(seed)
        plan = preset("crash", seed=seed, after=8 + 5 * seed)
        res = Supervisor().run(lacc_2d, g, ranks=4, faults=plan)
        np.testing.assert_array_equal(res.labels, oracle_labels(g))
        assert not res.degraded and res.n_recoveries == 1

    @pytest.mark.parametrize(
        "phase", ["cond_hook", "starcheck", "uncond_hook", "shortcut"]
    )
    def test_dist_crash_each_phase(self, phase):
        g = multi_iter_graph()
        A = g.to_matrix()
        plan = preset("crash", seed=3, phase=phase, after=4)
        res = Supervisor().run(lacc_dist, A, LAPTOP, nodes=1, faults=plan)
        np.testing.assert_array_equal(res.labels, oracle_labels(g))
        assert not res.degraded
        fault = res.events[0]
        assert fault.action == "fault" and f"phase {phase!r}" in fault.detail

    def test_dist_recovery_charged_to_cost_model(self):
        g = multi_iter_graph()
        plan = preset("crash", seed=0, after=25)  # mid-run, past snapshots
        res = Supervisor(
            config=SupervisorConfig(restart_penalty_seconds=1.0)
        ).run(lacc_dist, g.to_matrix(), LAPTOP, nodes=1, faults=plan)
        by_phase = res.cost.phase_seconds()
        assert by_phase.get("checkpoint", 0.0) > 0.0
        assert by_phase.get("recovery", 0.0) >= 1.0  # penalty + resume words
        # the fault event reads the continuous simulated clock; the repair
        # event carries the (older) clock of the snapshot it resumed from
        fault, repair = res.events
        assert fault.action == "fault" and fault.simulated_seconds > 0.0
        assert repair.action == "audit_repair"
        assert 0.0 < repair.simulated_seconds <= fault.simulated_seconds
        assert res.resumed and res.shrunk_to is None

    def test_recovery_spans_in_trace(self):
        g = multi_iter_graph()
        tracer = Tracer()
        plan = preset("crash", seed=0, after=25)
        with activate(tracer):
            Supervisor().run(lacc_dist, g.to_matrix(), LAPTOP, nodes=1, faults=plan)
        cats = {(s.name, s.cat) for s in all_spans(tracer)}
        assert ("checkpoint", "recovery") in cats
        assert ("audit_repair", "recovery") in cats
        assert ("recovery", "recovery") in cats
        # and they export: chrome_trace must include the recovery rows
        trace = chrome_trace(tracer)
        assert any(ev.get("name") == "audit_repair" for ev in trace["traceEvents"])

    def test_crash_before_first_snapshot(self):
        # no state yet: recovery restarts from scratch, still exact
        g = multi_iter_graph()
        plan = preset("crash", seed=0, after=1)
        res = Supervisor().run(lacc_spmd, g, ranks=3, faults=plan)
        np.testing.assert_array_equal(res.labels, oracle_labels(g))
        assert "fresh start" in res.events[-1].detail
        assert res.events[-1].iteration is None and not res.resumed


class TestEscalation:
    def permanent_plan(self, skip=150):
        # from the *skip*-th call onward every matching collective crashes —
        # resuming cannot get past it, so the supervisor must escalate
        # audit → rollback → degrade (~39 calls/iteration on the test path,
        # so skip=150 lands the wall mid-run, after checkpoints exist)
        return FaultPlan(
            [FaultRule(kind="crash", skip_calls=skip)], seed=0, name="always_crash"
        )

    def test_escalates_to_rollback_then_degrade(self):
        g = multi_iter_graph()
        cfg = SupervisorConfig(max_recoveries=3)
        fr = FlightRecorder()
        # iteration spans attribute the failures
        with activate(Tracer(), flight=fr):
            res = Supervisor(config=cfg).run(
                lacc_spmd, g, ranks=3, faults=self.permanent_plan()
            )
        np.testing.assert_array_equal(res.labels, oracle_labels(g))
        assert res.degraded
        actions = [e.action for e in res.events]
        assert actions.count("fault") == 4  # budget 3 + the final straw
        assert "rollback" in actions  # recurring failure escalated
        assert actions[-1] == "degrade"
        assert res.n_recoveries == cfg.max_recoveries + 1
        # the flight record is written from the same rows, not restated
        assert flight_rows(fr.find("recovery")) == record_rows(res.events)

    def test_degrade_leaves_caller_snapshots_untouched(self):
        # the hook's snapshots are the caller's: degrade repairs a copy
        g = gen.component_mixture([60, 40, 30, 25], avg_degree=2.0, seed=3)
        seen = []

        def keep(snap):
            arrays = (snap.parents, snap.star, snap.active)
            seen.append((snap, arrays, [None if a is None else a.copy()
                                        for a in arrays]))

        cfg = SupervisorConfig(max_recoveries=1)
        res = Supervisor(config=cfg).run(
            lacc_spmd, g, ranks=3, faults=self.permanent_plan(skip=60),
            on_iteration=keep,
        )
        np.testing.assert_array_equal(res.labels, oracle_labels(g))
        assert res.degraded and seen
        for snap, arrays, values in seen:
            now = (snap.parents, snap.star, snap.active)
            for cur, was, val in zip(now, arrays, values):
                assert cur is was
                if val is not None:
                    np.testing.assert_array_equal(cur, val)

    def test_degrade_disallowed_raises(self):
        g = multi_iter_graph()
        cfg = SupervisorConfig(max_recoveries=1, allow_degraded=False)
        with pytest.raises(RecoveryExhausted):
            Supervisor(config=cfg).run(
                lacc_spmd, g, ranks=3, faults=self.permanent_plan()
            )

    def test_watchdog_fires_and_degrades(self):
        g = multi_iter_graph()
        # every simulated iteration overruns a 1e-12 s deadline
        cfg = SupervisorConfig(iteration_deadline=1e-12, max_recoveries=2)
        res = Supervisor(config=cfg).run(lacc_dist, g.to_matrix(), LAPTOP, nodes=1)
        np.testing.assert_array_equal(res.labels, oracle_labels(g))
        assert res.degraded
        assert any(e.action == "watchdog" for e in res.events)

    def test_watchdog_silent_on_serial(self):
        # wall-clock drivers report 0 simulated seconds — never fires
        g = gen.component_mixture([40, 20], seed=2)
        cfg = SupervisorConfig(iteration_deadline=1e-12)
        res = Supervisor(config=cfg).run(lacc, g.to_matrix())
        assert not any(e.action == "watchdog" for e in res.events)
        np.testing.assert_array_equal(res.labels, oracle_labels(g))

    def test_event_record_serializes(self):
        g = multi_iter_graph()
        plan = preset("crash", seed=1, after=10)
        res = Supervisor().run(lacc_spmd, g, ranks=3, faults=plan)
        rows = [e.to_dict() for e in res.events]
        assert all(
            set(r) == {"action", "iteration", "simulated_seconds", "detail"}
            for r in rows
        )

    def test_shrink_record_matches_flight_record(self, tmp_path):
        path = tmp_path / "shrink.jsonl"
        r = run_driver(gen.path_graph(200), driver="spmd", ranks=4,
                       preset="shrink", seed=2, backend="sim",
                       record_path=str(path))
        assert r.shrunk_to == 3 and r.resumed
        got = flight_rows(read_flight_jsonl(str(path)))
        want = [(e["action"], e["iteration"], e["detail"])
                for e in r.recovery_events]
        assert "shrink" in [a for a, _, _ in want]
        assert got == want
