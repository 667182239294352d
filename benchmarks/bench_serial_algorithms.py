"""Serial algorithm comparison — LACC against the related-work baselines.

Not a figure in the paper, but the context its §II-C surveys: wall-clock
times of LACC (GraphBLAS), union-find (the work-optimal serial algorithm),
Shiloach–Vishkin, FastSV (the successor), BFS, label propagation and
Multistep on representative corpus graphs.  All outputs are
cross-validated against each other.
"""

import time

import pytest

from repro.baselines import bfs_cc, fastsv, label_prop, shiloach_vishkin, union_find
from repro.core import lacc
from repro.graphs import corpus, validate

from tableio import emit, format_table

GRAPHS = ["archaea", "uk-2002", "M3"]

ALGOS = {
    "LACC (GraphBLAS)": lambda g: lacc(g.to_matrix()).labels,
    "union-find": lambda g: union_find.connected_components(g.n, g.u, g.v),
    "Shiloach-Vishkin": lambda g: shiloach_vishkin.connected_components(g.n, g.u, g.v),
    "FastSV": lambda g: fastsv.connected_components(g.n, g.u, g.v),
    "BFS": lambda g: bfs_cc.connected_components(g.n, g.u, g.v),
    "label propagation": lambda g: label_prop.connected_components(g.n, g.u, g.v),
    "Multistep": lambda g: label_prop.multistep(g.n, g.u, g.v),
}


@pytest.fixture(scope="module")
def sweep():
    out = {}
    for gname in GRAPHS:
        g = corpus.load(gname)
        ref = None
        for aname, fn in ALGOS.items():
            t0 = time.perf_counter()
            labels = fn(g)
            dt = time.perf_counter() - t0
            if ref is None:
                ref = labels
            else:
                assert validate.same_partition(labels, ref), (gname, aname)
            out[gname, aname] = dt
    return out


def test_serial_comparison(sweep, benchmark):
    g = corpus.load("uk-2002")
    benchmark.pedantic(lambda: lacc(g.to_matrix()), rounds=1, iterations=1)
    rows = []
    for aname in ALGOS:
        rows.append([aname] + [f"{sweep[g, aname]*1e3:.1f}" for g in GRAPHS])
    body = format_table(["algorithm"] + [f"{g} (ms)" for g in GRAPHS], rows)
    fastest = ", ".join(
        f"{g}: {min(ALGOS, key=lambda a: sweep[g, a])}" for g in GRAPHS
    )
    body += (
        "\n\nall labelings verified identical (up to renaming)."
        f"\nfastest in this run: {fastest}."
    )
    emit("serial_algorithms", "Serial comparison: LACC vs related work", body)


def test_fastsv_fewer_iterations_than_lacc(sweep):
    """FastSV's aggressive hooking converges in fewer rounds (the
    LAGraph/FastSV line of follow-up work)."""
    g = corpus.load("M3")
    r = lacc(g.to_matrix())
    fs_iters = fastsv.fastsv_iterations(g.n, g.u, g.v)
    assert fs_iters <= r.n_iterations + 1
