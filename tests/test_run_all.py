"""``benchmarks/run_all.py`` decides which benches CI's table gate reruns.

Every ``benchmarks/bench_*.py`` must sit in exactly one of its two lists:
``DETERMINISTIC`` (rerun and byte-diffed by the ``bench-tables`` job) or
``TIMED`` (wall-clock tables, left out of the gate).  A new bench missing
from both would otherwise be silently ungated.
"""

import glob
import importlib.util
import os

BENCH_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")


def load_run_all():
    spec = importlib.util.spec_from_file_location(
        "run_all", os.path.join(BENCH_DIR, "run_all.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_bench_is_deterministic_or_timed():
    run_all = load_run_all()
    on_disk = {os.path.basename(p)
               for p in glob.glob(os.path.join(BENCH_DIR, "bench_*.py"))}
    assert not set(run_all.DETERMINISTIC) & set(run_all.TIMED)
    assert sorted(run_all.BENCHES) == sorted(on_disk)
    assert len(run_all.BENCHES) == len(on_disk)
