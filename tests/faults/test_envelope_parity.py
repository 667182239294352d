"""One fault envelope: the analytic and the literal path price retries alike.

``lacc_dist`` (analytic α–β collectives) and cost-attached ``lacc_spmd``
(SimComm) run their faults through the same loop, so every ``retry``
span's backoff is ``retry_backoff_base · 2^(k−1) · backoff_jitter(k)``
for its call — with the base taken from the cost model's machine.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.lacc_dist import lacc_dist
from repro.core.lacc_spmd import lacc_spmd
from repro.faults import FaultCall, FaultPlan, FaultRule
from repro.graphs.generators import rmat
from repro.mpisim import CostModel, backend
from repro.mpisim.machine import LAPTOP
from repro.obs import Tracer, activate

#: a non-default base, so a path that ignores the cost model's machine
#: prices visibly wrong backoffs
MACHINE = dataclasses.replace(LAPTOP, retry_backoff_base=3e-4)
RANKS = 4


def _run_dist(g, plan, tr):
    with activate(tr):
        lacc_dist(g.to_matrix(), MACHINE, nodes=1, faults=plan)


def _run_spmd(g, plan, tr):
    with backend.use("sim"), activate(tr):
        lacc_spmd(g, ranks=RANKS, faults=plan, cost=CostModel(MACHINE, RANKS, 1))


@pytest.mark.parametrize("run", [_run_dist, _run_spmd], ids=["lacc_dist", "lacc_spmd"])
def test_retry_backoff_follows_the_one_formula(run):
    # transport failures fail every delivery they hit (no payload can
    # dodge them), and two attempts each exercise the doubling
    plan = FaultPlan([FaultRule(kind="fail", probability=0.2, attempts=2)], seed=3)
    tr = Tracer()
    run(rmat(10, 8, seed=1), plan, tr)

    # a failed attempt a of call c is followed by retransmission a + 1
    base = MACHINE.retry_backoff_base
    want = [
        (e.attempt + 1,
         base * 2 ** e.attempt
         * FaultCall(plan, e.call, e.collective, e.phase, ()).backoff_jitter(e.attempt + 1))
        for e in plan.events
    ]
    got = [(sp.attrs["attempt"], sp.counters["backoff_seconds"])
           for sp in tr.find("retry", "fault")]
    assert {k for k, _ in want} == {1, 2}
    assert got == want
