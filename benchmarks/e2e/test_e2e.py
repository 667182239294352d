"""Tests of the end-to-end benchmark harness: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import contextlib
import copy
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
os.environ.setdefault("REPRO_KERNELS", "numpy")
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_smoke_run_names_exactly_the_benchmark_metrics(smoke):
    assert set(smoke["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for entry in smoke["workloads"].values():
        assert set(entry["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(entry["layers"]) == {m["name"] for m in SPEC["per_layer"]}
        assert entry["attempted"] > 0 and entry["failed"] == 0


def test_layers_a_workload_bypasses_see_no_calls(smoke):
    for name, entry in smoke["workloads"].items():
        lay = entry["layers"]
        proc = name == "protein-proc2"
        gb_calls = sum(lay[f"graphblas.{op}_calls"] for op in layers.GRAPHBLAS_OPS)
        assert (gb_calls == 0) == proc, name
        assert (lay["parallel.proccomm_alltoallv_calls"] > 0) == proc, name
        groups = [
            ["graphblas.adjacency_share"]
            + [f"graphblas.{op}_share" for op in layers.GRAPHBLAS_OPS],
            [f"kernels.{k}_share" for k in layers.KERNELS],
            [f"core.{s}_share" for s in layers.STEPS],
            [f"core.spmd_{s}_share" for s in layers.STEPS],
            [f"combblas.charge_{c}_share" for c in layers.CHARGES],
            ["parallel.proccomm_alltoallv_share", "parallel.proccomm_allreduce_share"],
        ]
        for keys in groups:
            assert sum(lay[k] for k in keys) <= 1.0, (name, keys)


def test_compare_flags_only_changes_beyond_the_bound(smoke):
    assert compare.compare(smoke, smoke, SPEC) == 0
    worse = copy.deepcopy(smoke)
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    worse["workloads"]["protein-dist64"]["metrics"]["wall_s"] *= 1 + 2 * bound
    assert compare.compare(smoke, worse, SPEC) == 1
    assert compare.compare(worse, smoke, SPEC) == 0


def _patched_owners():
    import repro.graphblas as gb
    from repro.combblas.distmatrix import DistMatrix
    from repro.parallel.pool import WorkerPool
    from repro.parallel.proccomm import ProcComm

    return [
        gb, gb.Matrix, gb.kernels, DistMatrix, ProcComm, WorkerPool,
        importlib.import_module("repro.core.lacc"),
        importlib.import_module("repro.core.lacc_dist"),
    ]


@pytest.mark.parametrize("raises", [False, True])
def test_uninstall_restores_every_attribute(raises):
    from repro.graphblas import kernels

    owners = _patched_owners()
    before = [dict(vars(o)) for o in owners]
    tiers, active = kernels.available(), kernels.active()
    with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
        with layers.LayerTimer():
            assert vars(owners[0])["mxv"] is not before[0]["mxv"]
            assert kernels.active() == layers.TRACED_TIER
            if raises:
                raise RuntimeError("rep failed")
    for owner, snap in zip(owners, before):
        now = vars(owner)
        assert now.keys() == snap.keys(), owner
        for key, value in snap.items():
            assert now[key] is value, (owner, key)
    assert (kernels.available(), kernels.active()) == (tiers, active)


def test_a_call_nested_in_its_own_layer_is_not_timed_twice():
    lt = layers.LayerTimer()
    inner = lt._wrap("graphblas", "extract", lambda: None)
    outer = lt._wrap("graphblas", "assign", inner)
    outer()
    inner()
    assert dict(lt.calls) == {"graphblas.assign": 1, "graphblas.extract": 1}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_wrapped_run_gives_byte_identical_parents(name):
    from repro.parallel import shutdown_pools

    w = workloads.WORKLOADS[name]
    g = w.make(3, True)
    try:
        rep = workloads.load_driver(w.kind)
        plain = rep(g).parents
        with layers.LayerTimer() as lt:
            wrapped = rep(g).parents
    finally:
        shutdown_pools()
    assert wrapped.dtype == plain.dtype
    assert wrapped.tobytes() == plain.tobytes()
    assert sum(lt.calls.values()) > 0


def test_checker_fails_raising_wrong_and_unstable_reps():
    import run

    def result(*parents):
        return lambda g: SimpleNamespace(parents=np.array(parents, dtype=np.int64))

    def boom(g):
        raise RuntimeError("rep crashed")

    truth = np.array([0, 0, 1])
    checker = run.Checker(truth)
    for fn in [result(0, 0, 2), result(0, 1, 2), result(1, 1, 2), boom,
               result(0, 0, 2)]:
        checker.rep(fn, None)
    assert (checker.attempted, checker.failed) == (5, 3)

    checker = run.Checker(truth, reference=np.array([1, 1, 2]))
    checker.rep(result(0, 0, 2), None)
    assert checker.failed == 1


def test_same_partition_agrees_with_the_loop_reference():
    from repro.core.lacc import lacc
    from repro.graphs.validate import ground_truth
    from repro.graphs.validate import same_partition as reference

    g = workloads.WORKLOADS["metagenome-serial"].make(2, True)
    truth = ground_truth(g)
    parents = lacc(g.to_matrix()).parents
    moved = parents.copy()
    moved[0] = parents[-1]
    merged = np.where(parents == parents[-1], parents[0], parents)
    relabelled = np.random.default_rng(0).permutation(g.n)[truth]
    for labels, expected in [(parents, True), (relabelled, True),
                             (moved, False), (merged, False)]:
        assert reference(labels, truth) is expected
        assert workloads.same_partition(labels, truth) is expected
