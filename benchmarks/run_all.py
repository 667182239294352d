#!/usr/bin/env python
"""Regenerate every table and figure of the paper in one go.

Equivalent to ``pytest benchmarks/ --benchmark-only -s`` but without the
pytest machinery: runs each bench module's table generator and leaves the
artefacts in ``benchmarks/results/``.  The end-to-end record that
``python -m repro regress`` gates comes from ``benchmarks/e2e/run.py``.

Usage:  python benchmarks/run_all.py
"""

import subprocess
import sys
import time

# Benches whose tables are a pure function of the code (alpha-beta model
# time, counts, partitions, iteration numbers): rerunning one rewrites its
# files under benchmarks/results/ byte-for-byte.  CI's ``bench-tables`` job
# reruns exactly this list and fails on any diff.
DETERMINISTIC = [
    "bench_table1_sparsity_scope.py",
    "bench_table2_machines.py",
    "bench_table3_corpus.py",
    "bench_fig3_skew.py",
    "bench_fig4_strong_scaling_edison.py",
    "bench_fig5_strong_scaling_cori.py",
    "bench_fig6_large_graphs.py",
    "bench_fig7_converged_vertices.py",
    "bench_fig8_step_breakdown.py",
    "bench_ablation_comm.py",
    "bench_future_cyclic.py",
    "bench_iteration_complexity.py",
    "bench_spmd_validation.py",
    "bench_weak_scaling.py",
    "bench_ablation_h.py",
]

# Benches with wall-clock columns: their tables differ on every run and
# machine, so no byte diff can gate them.
TIMED = [
    "bench_mcl_integration.py",
    "bench_ablation_sparsity.py",
    "bench_ablation_spmspv.py",
    "bench_frontier_sweep.py",
    "bench_serial_algorithms.py",
]

BENCHES = DETERMINISTIC + TIMED


def main() -> int:
    import os

    here = os.path.dirname(os.path.abspath(__file__))
    failures = 0
    for bench in BENCHES:
        t0 = time.time()
        print(f"### {bench}")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", os.path.join(here, bench), "-q", "-s",
             "-p", "no:cacheprovider"],
            capture_output=True,
            text=True,
        )
        # show only the emitted tables, not the pytest chrome
        show = False
        for line in proc.stdout.splitlines():
            if line.startswith(("Table", "Figure", "Ablation", "§", "Serial")):
                show = True
            if show and not line.startswith(("[written", ".", "=")):
                print(line)
            if line.startswith("[written"):
                print(line)
                show = False
        status = "ok" if proc.returncode == 0 else "FAILED"
        failures += proc.returncode != 0
        print(f"### {bench}: {status} ({time.time()-t0:.1f}s)\n")
    print(f"{len(BENCHES) - failures}/{len(BENCHES)} benches ok; "
          f"tables in benchmarks/results/")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
