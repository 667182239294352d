"""Compare two all-workload result files against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json B.json

For every end-to-end metric on every workload, prints the relative change
from A to B (positive = B is worse) next to the metric's bound, and exits 1
if any change is worse than its bound, any value is missing, or either file
has a failed rep (the error rate's bound is exactly 0).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def worsening(a: float, b: float, better: str) -> float:
    """Relative change from *a* to *b*, signed so that worse is positive."""
    change = (b - a) / a
    return change if better == "lower" else -change


def compare(a: dict, b: dict, spec: dict) -> int:
    status = 0
    print(f"{'workload':20s} {'metric':12s} {'A':>12s} {'B':>12s} {'change':>8s} {'bound':>6s}")
    for w in spec["workloads"]:
        name = w["name"]
        for label, rec in (("A", a), ("B", b)):
            failed = rec["workloads"].get(name, {}).get("failed", 0)
            if failed:
                print(f"{name:20s} {failed} failed rep(s) in {label}")
                status = 1
        for m in spec["end_to_end"]:
            try:
                va = a["workloads"][name]["metrics"][m["name"]]
                vb = b["workloads"][name]["metrics"][m["name"]]
            except KeyError:
                print(f"{name:20s} {m['name']:12s} missing")
                status = 1
                continue
            d = worsening(va, vb, m["better"])
            bad = d > m["bound"]
            status |= bad
            print(f"{name:20s} {m['name']:12s} {va:12.5g} {vb:12.5g} "
                  f"{d:+8.1%} {m['bound']:6.0%}{'  WORSE' if bad else ''}")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    return compare(a, b, json.loads(SPEC.read_text()))


if __name__ == "__main__":
    sys.exit(main())
