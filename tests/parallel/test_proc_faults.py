"""Fault-injection matrix on the real-process backend.

The CRC/retry envelope lives in the shared
:class:`~repro.mpisim.envelope.CommBase`, and injection happens on the
flattened leaf buffers in SimComm's exact order — so one
:class:`FaultPlan` seed must produce *identical* behaviour on both
backends: same healed results, same retry counts (plan cursor), same
typed :class:`CollectiveError` for permanent faults.  This suite proves
that end-to-end on the SPMD drivers (the ``tests/recovery`` crash-matrix
shape re-run on real processes), including supervised crash recovery
against the union-find oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import union_find
from repro.core.lacc_2d import lacc_2d
from repro.core.lacc_spmd import lacc_spmd
from repro.faults import CollectiveError, preset
from repro.graphs import generators as gen
from repro.mpisim import backend
from repro.recovery import Supervisor


def oracle_labels(g):
    return union_find.connected_components(g.n, g.u, g.v)


def multi_iter_graph(seed=0):
    return gen.path_graph(300, name=f"path_s{seed}")


DRIVERS = [
    ("lacc_spmd", lacc_spmd, {"ranks": 3}),
    ("lacc_2d", lacc_2d, {"ranks": 4}),
]


def run_with_plan(driver, g, plan, kwargs):
    """(outcome, payload, cursor): healed parents or the typed error."""
    try:
        res = driver(g, faults=plan, **kwargs)
        return ("ok", res.parents.tobytes(), plan.cursor)
    except CollectiveError as exc:
        return ("err", (exc.collective, tuple(exc.kinds), exc.attempts), plan.cursor)


class TestEnvelopeParity:
    """Same plan seed ⇒ byte-identical fault behaviour on both backends."""

    @pytest.mark.parametrize("name,driver,kwargs", DRIVERS)
    @pytest.mark.parametrize("preset_name", ["crash", "flaky", "permanent", "stragglers"])
    def test_preset_parity(self, name, driver, kwargs, preset_name):
        g = multi_iter_graph()
        sim_out = run_with_plan(driver, g, preset(preset_name, seed=7), kwargs)
        with backend.use("proc"):
            proc_out = run_with_plan(driver, g, preset(preset_name, seed=7), kwargs)
        assert sim_out == proc_out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_flaky_heals_to_oracle_on_proc(self, seed):
        g = multi_iter_graph(seed)
        plan = preset("flaky", seed=seed)
        with backend.use("proc"):
            res = lacc_spmd(g, ranks=3, faults=plan)
        np.testing.assert_array_equal(res.parents, oracle_labels(g))
        assert plan.cursor > 0  # the plan really fired

    def test_permanent_fault_is_typed_error_on_proc(self):
        g = multi_iter_graph()
        with backend.use("proc"):
            with pytest.raises(CollectiveError):
                lacc_spmd(g, ranks=3, faults=preset("permanent", seed=0))


class TestSupervisedRecovery:
    """tests/recovery crash-matrix shape, re-run on real processes: a
    crash at any point must leave supervised labels oracle-identical."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spmd_crash_recovers(self, seed):
        g = multi_iter_graph(seed)
        plan = preset("crash", seed=seed, after=10 + 7 * seed)
        with backend.use("proc"):
            res = Supervisor().run(lacc_spmd, g, ranks=3, faults=plan)
        np.testing.assert_array_equal(res.labels, oracle_labels(g))
        assert res.n_recoveries == 1 and not res.degraded

    @pytest.mark.parametrize("seed", [0, 1])
    def test_2d_crash_recovers(self, seed):
        g = multi_iter_graph(seed)
        plan = preset("crash", seed=seed, after=8 + 5 * seed)
        with backend.use("proc"):
            res = Supervisor().run(lacc_2d, g, ranks=4, faults=plan)
        np.testing.assert_array_equal(res.labels, oracle_labels(g))
        assert not res.degraded and res.n_recoveries == 1

    def test_supervised_recovery_identical_to_sim(self):
        g = multi_iter_graph()
        plan_a = preset("crash", seed=3, after=12)
        res_a = Supervisor().run(lacc_spmd, g, ranks=3, faults=plan_a)
        plan_b = preset("crash", seed=3, after=12)
        with backend.use("proc"):
            res_b = Supervisor().run(lacc_spmd, g, ranks=3, faults=plan_b)
        np.testing.assert_array_equal(res_a.labels, res_b.labels)
        assert res_a.attempts == res_b.attempts
        assert [e.action for e in res_a.events] == [e.action for e in res_b.events]
