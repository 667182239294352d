"""Figure 8 — per-step time breakdown and scalability.

The paper decomposes LACC's runtime into its four steps (conditional
hooking, unconditional hooking, shortcut, starcheck) for three
representative graphs across node counts, observing that

* all four steps scale,
* conditional hooking costs more than unconditional hooking (the latter
  exploits the extra sparsity of Lemma 2),
* the custom communication keeps shortcut and starcheck scalable.
"""

import pytest

from repro.core.lacc_dist import lacc_dist
from repro.graphs import corpus
from repro.mpisim import EDISON
from repro.obs import Tracer, activate

from tableio import emit, emit_json, format_table

GRAPHS = ["eukarya", "archaea", "M3"]
NODES = [4, 16, 64, 256]
STEPS = ["cond_hook", "uncond_hook", "shortcut", "starcheck"]


@pytest.fixture(scope="module")
def sweep():
    """(name, nodes) -> per-step model seconds, plus one machine-readable
    record per run with words/messages totals read off the obs trace."""
    phases, records = {}, []
    for name in GRAPHS:
        g = corpus.load(name)
        A = g.to_matrix()
        for nodes in NODES:
            tr = Tracer()
            with activate(tr):
                r = lacc_dist(A, EDISON, nodes=nodes)
            phases[name, nodes] = r.cost.phase_seconds()
            records.append({
                "graph": name,
                "nodes": nodes,
                "ranks": r.ranks,
                "iterations": r.n_iterations,
                "seconds": r.simulated_seconds,
                "step_seconds": {s: phases[name, nodes].get(s, 0.0) for s in STEPS},
                "words": tr.counter_total("words"),
                "messages": tr.counter_total("messages"),
            })
    return phases, records


def test_fig8(sweep, benchmark):
    g = corpus.load("eukarya")
    A = g.to_matrix()
    benchmark.pedantic(lambda: lacc_dist(A, EDISON, nodes=16), rounds=1, iterations=1)
    all_phases, records = sweep
    rows = []
    for name in GRAPHS:
        for nodes in NODES:
            phases = all_phases[name, nodes]
            rows.append(
                [name, nodes]
                + [f"{phases.get(s, 0.0)*1e3:.3f}" for s in STEPS]
                + [f"{sum(phases.values())*1e3:.3f}"]
            )
    body = format_table(
        ["graph", "nodes"] + [f"{s} (ms)" for s in STEPS] + ["total (ms)"], rows
    )
    emit("fig8_step_breakdown", "Figure 8: LACC per-step time breakdown", body)
    emit_json("fig8_step_breakdown", {"machine": "edison", "runs": records})


def test_cond_hook_costs_more_than_uncond(sweep):
    """§VI-E(c): 'conditional hooking is usually more expensive than
    unconditional hooking'."""
    wins = sum(
        1
        for key, phases in sweep[0].items()
        if phases.get("cond_hook", 0) > phases.get("uncond_hook", 0)
    )
    assert wins >= 0.75 * len(sweep[0])


def test_steps_scale(sweep):
    """Every step's time at 64 nodes is below its 4-node time for the
    larger graphs."""
    phases, _ = sweep
    for name in ("eukarya", "M3"):
        for s in STEPS:
            assert phases[name, 64].get(s, 0) < phases[name, 4].get(s, 1), (name, s)
