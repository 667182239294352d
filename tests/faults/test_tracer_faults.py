"""Tracer × fault-injection consistency.

The retry spans the α–β collectives nest under a faulted run must agree
with the :class:`~repro.faults.FaultPlan` injection log — same attempt
counts, same fault kinds — and the whole (plan log, span tree, flight
record) triple must be byte-reproducible across same-seed runs.
"""

import json

import pytest

from repro.core.lacc_dist import lacc_dist
from repro.faults import preset
from repro.graphs import corpus
from repro.mpisim import EDISON
from repro.obs import Tracer, activate
from repro.obs.export import span_records
from repro.obs.flight import FlightRecorder


@pytest.fixture(scope="module")
def A():
    return corpus.load("archaea").to_matrix()


def _faulted_run(A, preset_name, seed, nodes=4, with_flight=False):
    plan = preset(preset_name, seed=seed)
    tr = Tracer()
    fr = FlightRecorder(run_id=f"{preset_name}-{seed}") if with_flight else None
    with activate(tr, flight=fr):
        res = lacc_dist(A, EDISON, nodes=nodes, faults=plan)
    return plan, tr, fr, res


def test_retry_spans_match_fault_plan_log(A):
    plan, tr, _, _ = _faulted_run(A, "flaky", seed=7)
    retry_spans = tr.find("retry", "fault")
    log = plan.log()
    assert log, "flaky preset injected nothing — preset drifted?"

    # every retransmission recorded in the plan has attempt >= 1; the
    # spans carry the same attempt numbers, one span per retransmission
    retried = [e for e in log if e["attempt"] >= 1]
    # each validation failure at attempt k triggers exactly one retry
    # span with attempt=k+1; count retries by (call, attempt) pairs
    retry_rounds = {(e["call"], e["attempt"]) for e in retried}
    span_attempts = sorted(s.attrs["attempt"] for s in retry_spans)
    assert len(span_attempts) >= len(retry_rounds)

    # the kinds annotated on each span appear in the plan's log
    logged_kinds = {e["kind"] for e in log}
    for s in retry_spans:
        for kind in s.attrs["kinds"].split(","):
            assert kind in logged_kinds
        assert s.attrs["attempt"] >= 1
        assert s.counters.get("backoff_seconds", 0) > 0


def test_flight_fault_events_match_fault_plan_log(A):
    plan, _, fr, _ = _faulted_run(A, "stragglers", seed=3, with_flight=True)
    log = plan.log()
    delays = [e for e in log if e["kind"] == "delay"]
    flight_delays = [
        e for e in fr.events
        if e.kind == "fault" and e.data.get("fault_kind") == "delay"
    ]
    assert len(flight_delays) == len(delays) > 0
    # the plan log and the flight record agree on the victim rank
    plan_ranks = {e["rank"] for e in delays}
    flight_ranks = {e.rank for e in flight_delays}
    assert flight_ranks == plan_ranks
    assert len(flight_ranks) == 1  # a persistent straggler, not jitter


def test_same_seed_runs_are_byte_reproducible(A):
    # serial compute spans carry wall-clock durations (inherently noisy);
    # the reproducibility contract covers everything the faults touch:
    # the plan's injection log, the flight record (simulated clock), and
    # the retry spans' structure
    out = []
    for _ in range(2):
        plan, tr, fr, res = _faulted_run(A, "flaky", seed=11, with_flight=True)
        retry_view = [
            {"name": r["name"], "attrs": r["attrs"], "counters": r["counters"]}
            for r in span_records(tr)
            if r["cat"] == "fault"
        ]
        out.append({
            "plan": plan.to_json(),
            "retries": json.dumps(retry_view, sort_keys=True),
            "flight": json.dumps(
                [e.to_dict() for e in fr.events], sort_keys=True
            ),
            "components": res.n_components,
        })
    assert out[0]["plan"] == out[1]["plan"]
    assert out[0]["retries"] == out[1]["retries"]
    assert out[0]["flight"] == out[1]["flight"]
    assert out[0]["components"] == out[1]["components"]


def test_different_seeds_differ(A):
    p7, _, _, _ = _faulted_run(A, "flaky", seed=7)
    p8, _, _, _ = _faulted_run(A, "flaky", seed=8)
    assert p7.to_json() != p8.to_json()


def test_straggler_victim_is_seed_deterministic(A):
    ranks = set()
    for seed in (0, 1, 2):
        plan, _, fr, _ = _faulted_run(A, "stragglers", seed=seed,
                                      with_flight=True)
        victims = {
            e.rank for e in fr.events
            if e.kind == "fault" and e.data.get("fault_kind") == "delay"
        }
        assert len(victims) == 1
        ranks.add(victims.pop())
    # the victim derives from the seed — different seeds should not all
    # pick the same rank (Fibonacci-hash spread over 16 ranks)
    assert len(ranks) > 1
