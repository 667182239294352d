#!/usr/bin/env python
"""Crash-fault recovery matrix (run by CI).

The acceptance contract of :mod:`repro.recovery` (docs/ROBUSTNESS.md):
a ``crash`` fault injected at **every LACC phase**, on several seeded
graphs, must leave the supervised labels *identical* to the union–find
oracle — the supervisor may repair, roll back or degrade, but it may
never return a wrong partition.

The matrix:

* drivers — ``lacc_dist`` with a crash targeted at each of the four
  phases (``cond_hook``, ``starcheck``, ``uncond_hook``, ``shortcut``;
  only the cost-model driver attributes collectives to phases), plus
  ``lacc_spmd`` and ``lacc_2d`` with call-count-targeted crashes (their
  literal message-passing comm has no phase attribution);
* graphs — three seeded multi-iteration graphs (a long path, a random
  permutation of it, and a component mixture), so crashes land mid-run
  rather than after convergence.

Every cell runs under a fresh :class:`repro.recovery.Supervisor` and is
gated on ``labels == oracle``.  The full recovery-event record — what
action recovery took, at which iteration, at what simulated time — is
written to ``benchmarks/results/BENCH_recovery.json`` and uploaded as a
CI artifact, so a failing cell can be diagnosed from the log alone.

Usage:  PYTHONPATH=src python benchmarks/check_recovery.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from tableio import RESULTS_DIR  # noqa: E402

PHASES = ("cond_hook", "starcheck", "uncond_hook", "shortcut")
SEEDS = (0, 1, 2)


def graphs():
    from repro.graphs import generators as gen

    out = []
    for seed in SEEDS:
        path = gen.path_graph(240 + 30 * seed, name=f"path_s{seed}")
        out.append((f"path_s{seed}", path))
        out.append((f"shuffled_s{seed}", gen.relabel_random(path, seed=seed)))
        out.append(
            (f"mixture_s{seed}", gen.component_mixture([90, 50, 20, 7], seed=seed))
        )
    return out


def main() -> int:
    import numpy as np

    from repro.baselines import union_find
    from repro.core.lacc_2d import lacc_2d
    from repro.core.lacc_dist import lacc_dist
    from repro.core.lacc_spmd import lacc_spmd
    from repro.faults import preset
    from repro.mpisim.machine import LAPTOP
    from repro.recovery import Supervisor, SupervisorConfig

    cells = []
    failures = 0
    for gname, g in graphs():
        oracle = union_find.connected_components(g.n, g.u, g.v)
        runs = []
        # phase-targeted crashes on the cost-model driver
        for phase in PHASES:
            plan = preset("crash", seed=7, phase=phase, after=3)
            runs.append(
                (f"lacc_dist@{phase}",
                 lambda p=plan: Supervisor().run(
                     lacc_dist, g.to_matrix(), LAPTOP, nodes=1, faults=p))
            )
        # call-count-targeted crashes on the literal SPMD drivers
        for seed in SEEDS:
            plan = preset("crash", seed=seed, after=12 + 9 * seed)
            runs.append(
                (f"lacc_spmd@call{12 + 9 * seed}",
                 lambda p=plan: Supervisor().run(lacc_spmd, g, ranks=3, faults=p))
            )
            plan2 = preset("crash", seed=seed, after=10 + 7 * seed)
            runs.append(
                (f"lacc_2d@call{10 + 7 * seed}",
                 lambda p=plan2: Supervisor().run(lacc_2d, g, ranks=4, faults=p))
            )
        for cell_name, run in runs:
            res = run()
            exact = bool(np.array_equal(res.labels, oracle))
            failures += not exact
            cells.append(
                {
                    "graph": gname,
                    "cell": cell_name,
                    "n": g.n,
                    "exact": exact,
                    "degraded": res.degraded,
                    "attempts": res.attempts,
                    "n_recoveries": res.n_recoveries,
                    "checkpoints_written": res.checkpoints_written,
                    "events": [e.to_dict() for e in res.events],
                }
            )
            mark = "ok " if exact else "FAIL"
            print(
                f"{mark} {gname:>14} {cell_name:<22} "
                f"recoveries={res.n_recoveries} attempts={res.attempts}"
                f"{' DEGRADED' if res.degraded else ''}"
            )

    recovered = sum(1 for c in cells if c["n_recoveries"] > 0)
    record = {
        "check": "recovery_crash_matrix",
        "phases": list(PHASES),
        "seeds": list(SEEDS),
        "cells": cells,
        "total_cells": len(cells),
        "cells_with_recovery": recovered,
        "failures": failures,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_recovery.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=2)
    print(f"\n{len(cells)} cells, {recovered} exercised recovery, "
          f"{failures} wrong partitions")
    print(f"[written to {os.path.relpath(out)}]")
    if failures:
        print("FAIL: a supervised run returned a partition != union-find oracle")
        return 1
    if recovered == 0:
        print("FAIL: no cell exercised recovery — crash targeting is broken")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
