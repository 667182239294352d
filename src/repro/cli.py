"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``
    Run one LACC driver (``--driver serial``, the default, or ``dist``,
    ``spmd``, ``2d``) or a baseline method on a graph file (MatrixMarket
    ``.mtx`` or whitespace edge list, optionally gzipped) or a named
    corpus analogue, under any observers: a Chrome trace (``--trace``;
    on the proc backend one pid lane per rank plus the conductor), a
    flight record (``--record``), a hotspot table or flamegraph
    (``--top``/``--flame``), per-rank analytics (``--analyze``), JSON
    (``--json``), statistics (``--stats``) and the labels (``--out``).
    ``dist`` sweeps ``--nodes``.  ``--faults PRESET`` runs the driver
    under the :mod:`repro.recovery` supervisor with a fault preset of
    :mod:`repro.faults` — real SIGKILLs, SIGSTOP stragglers and corrupt
    shared-memory frames on the proc backend, or the simulator's typed
    errors, delays and crashes — and verifies the answer
    (:mod:`repro.runner`): byte-identical labels, union–find oracle,
    resume-not-restart.  ``--max-recoveries 0`` fails loudly instead of
    recovering.
``corpus``
    List the Table III corpus analogues or dump one to a file.
``stats``
    Structural summary of a graph.
``forest``
    Spanning forest of each component.
``mcl``
    Markov-cluster a graph and print the clusters (HipMCL-lite).
``explain``
    Replay a ``.jsonl`` flight record (:mod:`repro.obs.flight`, e.g. from
    ``run --record``) and print a human-readable diagnosis of what went
    wrong (retry storms, stragglers, checkpoint churn, lost ranks).
``regress``
    Compare an end-to-end benchmark record (``benchmarks/e2e/run.py
    --out``) with the committed ``BENCH_e2e.json``: every deterministic
    per-layer counter must match exactly and every rep must have passed.

Examples
--------
::

    python -m repro run graph.mtx --driver union-find --stats
    python -m repro run graph.mtx --json --trace run.trace.json
    python -m repro run archaea --driver dist --machine edison --nodes 1,16,64
    python -m repro run archaea --trace out.json --top --flame
    python -m repro run archaea --driver dist --nodes 16 --analyze
    python -m repro run archaea --driver spmd --backend proc --trace merged.json
    python -m repro corpus --list
    python -m repro corpus eukarya --out eukarya.mtx
    python -m repro run archaea --driver spmd --backend proc --faults kill \
        --seed 3 --record chaos.jsonl
    python -m repro run archaea --driver 2d --faults shrink --json
    python -m repro run archaea --driver dist --faults stragglers --nodes 16
    python -m repro run archaea --driver dist --nodes 16 --record fr.jsonl
    python -m repro mcl similarities.mtx --inflation 2.0
    python -m repro explain fr.jsonl --html fr.html
    python -m repro explain fr.jsonl --json
    python -m repro regress --current BENCH_current.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main"]


def _load_graph(path: str):
    """Load .mtx / edge-list files or a named corpus analogue."""
    from repro.graphs import corpus, io

    if path in corpus.CORPUS:
        return corpus.load(path)
    lower = path.lower()
    if lower.endswith((".mtx", ".mtx.gz")):
        return io.read_matrix_market(path)
    return io.read_edge_list(path)


def _node_counts(text: Optional[str]) -> List[int]:
    """The ``--nodes`` list (default: 4); empty when it holds anything
    but positive integers."""
    try:
        counts = [int(x) for x in (text or "4").split(",")]
    except ValueError:
        return []
    return counts if min(counts) >= 1 else []


def _check(args: argparse.Namespace) -> Optional[str]:
    """Why ``repro run`` cannot run *args*, in one line (``None``: it
    can).  A flag the driver or the preset would ignore is an error."""
    from repro.core.drivers import DRIVERS
    from repro.runner import preset_flags

    entry = DRIVERS.get(args.driver)
    ranked = entry is not None and entry.runs_at is not None
    dist = args.driver == "dist"
    takes = {
        "--ranks": (args.ranks is not None, ranked),
        "--machine": (args.machine is not None, dist),
        "--nodes": (args.nodes is not None, dist),
        "--parconnect": (args.parconnect, dist),
        "--faults": (args.faults is not None, entry is not None),
        "--record": (args.record is not None, entry is not None),
        "--analyze": (args.analyze, entry is not None),
    }
    for flag, (given, usable) in takes.items():
        if given and not usable:
            return f"--driver {args.driver} takes no {flag}"
    if ranked and args.ranks is not None and not entry.runs_at(args.ranks):
        return f"--driver {args.driver} does not run at {args.ranks} ranks"
    nodes = _node_counts(args.nodes)
    if not nodes:
        return f"--nodes takes positive integers, not {args.nodes!r}"
    if args.record and len(nodes) > 1:
        return "--record takes one run, not a --nodes sweep"
    flags = dict(seed=args.seed, after=args.after, phase=args.phase,
                 rank=args.rank, stall_seconds=args.stall_seconds,
                 interval=args.interval, checkpoint_dir=args.checkpoint_dir,
                 max_recoveries=args.max_recoveries)
    supervised = ("seed", "interval", "checkpoint_dir", "max_recoveries")
    usable = preset_flags(args.faults, **flags).keys() | (
        set(supervised) if args.faults else set())
    stray = sorted(k for k, v in flags.items() if v is not None and k not in usable)
    if stray:
        who = (f"preset {args.faults!r}" if args.faults
               else "a run without --faults")
        return f"{who} takes no " + ", ".join(
            "--" + k.replace("_", "-") for k in stray)
    return None


def _print_run(rep, run: dict, args: argparse.Namespace) -> None:
    """The text view of one run: what ran, its answer and each observer's
    output."""
    from repro.obs import flamegraph, top_table

    where = ""
    if rep.nodes is not None:
        where = (f" on simulated {run['machine'] or args.machine or 'edison'}"
                 f", {rep.nodes} nodes")
    if run["ranks"] is not None and run["ranks"] > 1:
        where += f" × {run['ranks']} ranks"
    head = f"{args.driver}{where} [{rep.backend} backend]"
    if rep.preset is not None:
        head += f", faults {rep.preset!r} seed {rep.seed}"
    if rep.error is not None:
        print(f"{head}: failed loudly: {rep.error}")
    else:
        iters = "" if rep.iterations is None else f" in {rep.iterations} iterations"
        clock = ("" if rep.simulated_seconds is None
                 else f"{rep.simulated_seconds * 1e3:.3f} ms simulated, ")
        print(f"{head}: {run['components']} components{iters}, {clock}"
              f"{rep.wall_seconds * 1e3:.1f} ms wall")
    if "parconnect_seconds" in run:
        pc = run["parconnect_seconds"]
        print(f"  ParConnect: {pc * 1e3:.3f} ms simulated "
              f"({pc / rep.simulated_seconds:.2f}x LACC's)")
    if args.stats and rep.labels is not None:
        print(f"  largest component: {run['largest_component']}   "
              f"singletons: {run['singleton_components']}")
        if run["step_seconds"] is not None:
            print("  steps: " + "  ".join(
                f"{s}={t * 1e3:.3f}ms" for s, t in run["step_seconds"].items()))
            for it in run["iteration_stats"]:
                traffic = (f" words={it['words_communicated']} "
                           f"msgs={it['messages_sent']}"
                           if "words_communicated" in it else "")
                print(f"  iter {it['iteration']}: "
                      f"active={it['active_vertices']} "
                      f"hooks={it['cond_hooks']}+{it['uncond_hooks']} "
                      f"converged={it['converged_vertices']}{traffic}")
    if rep.preset is not None:
        print(f"  injected: {rep.injected or 'nothing (schedule never fired)'}")
        if rep.error is None:
            print(f"  {rep.attempts} attempt(s), {rep.recoveries} "
                  f"recover{'y' if rep.recoveries == 1 else 'ies'}"
                  + (f", shrunk to {rep.shrunk_to} ranks"
                     if rep.shrunk_to is not None else ""))
            for what, passed in (
                ("byte-identical to fault-free run", rep.byte_identical),
                ("labels match union-find oracle", rep.oracle_ok),
                ("resumed (no restart from scratch)", rep.resumed),
            ):
                print(f"  {'PASS' if passed else 'FAIL'}  {what}")
        for e in rep.recovery_events:
            at = "-" if e["iteration"] is None else f"iter {e['iteration']}"
            print(f"  recovery: {e['action']:<12s} {at:<8s} {e['detail']}")
        if rep.reference_seconds is not None:
            print(f"  fault-free reference: "
                  f"{rep.reference_seconds * 1e3:.3f} ms simulated")
        if rep.anomaly_classes:
            print(f"  anomalies detected: {', '.join(rep.anomaly_classes)}")
    if rep.tracer is not None and (args.top or args.flame):
        clock = "α–β model seconds" if rep.nodes is not None else "wall seconds"
        n = sum(1 for _ in rep.tracer.walk())
        spans = f"{n} spans"
        if rep.rank_obs is not None:
            workers = sum(sum(1 for _ in tr.walk())
                          for tr in rep.rank_obs.tracers.values())
            spans = (f"{n} conductor spans + {workers} worker spans across "
                     f"{rep.rank_obs.size} ranks")
        print(f"\ntrace: {spans}, {rep.tracer.max_depth()} levels deep "
              f"[{clock}]\n")
        if args.top:
            print(top_table(rep.tracer, limit=args.top))
        if args.flame:
            print(flamegraph(rep.tracer))
    if rep.analytics is not None:
        print(rep.analytics.render())


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runner import run_driver

    problem = _check(args)
    if problem:
        print(f"repro run: {problem}", file=sys.stderr)
        return 2
    try:
        g = _load_graph(args.graph)
    except OSError as exc:
        print(f"repro run: cannot read the graph: {exc}", file=sys.stderr)
        return 2
    # flags left unset keep run_driver's defaults
    given = {k: v for k, v in dict(
        ranks=args.ranks, machine=args.machine, preset=args.faults,
        seed=args.seed, after=args.after, phase=args.phase, rank=args.rank,
        stall_seconds=args.stall_seconds, checkpoint_interval=args.interval,
        checkpoint_dir=args.checkpoint_dir, max_recoveries=args.max_recoveries,
    ).items() if v is not None}
    reports, runs = [], []
    for nodes in _node_counts(args.nodes):
        try:
            rep = run_driver(g, args.driver, backend=args.backend, nodes=nodes,
                             record_path=args.record,
                             trace=bool(args.trace or args.top or args.flame),
                             analyze=args.analyze, **given)
        except ValueError as exc:
            print(f"repro run: {exc}", file=sys.stderr)
            return 2
        run = rep.to_dict()
        if args.parconnect and rep.result is not None:
            from repro.baselines.parconnect import parconnect

            run["parconnect_seconds"] = parconnect(
                g.n, g.u, g.v, rep.result.cost.machine, nodes=nodes
            ).simulated_seconds
        reports.append(rep)
        runs.append(run)

    if args.trace:
        from repro.obs import merge_chrome_traces, write_chrome_trace

        write_chrome_trace(
            merge_chrome_traces([rep.chrome_trace() for rep in reports]),
            args.trace)
    if args.out and reports[-1].labels is not None:
        np.savetxt(args.out, reports[-1].labels, fmt="%d")
    if args.json:
        print(json.dumps({
            "graph": g.name,
            "vertices": g.n,
            "edges": g.nedges,
            "driver": args.driver,
            "backend": reports[0].backend,
            "runs": runs,
        }, indent=2))
    else:
        print(f"graph: {g.name} ({g.n} vertices, {g.nedges} edges)")
        for rep, run in zip(reports, runs):
            _print_run(rep, run, args)
        for path, what in ((args.trace, "Chrome trace"),
                           (args.record, "flight record"),
                           (args.out, "labels")):
            if path:
                print(f"{what} written to {path}")
    return 0 if all(rep.ok for rep in reports) else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.graphs import corpus, io

    if args.list or not args.name:
        print(f"{'name':14s} {'paper V':>10s} {'paper E':>10s} {'paper CC':>9s}  description")
        for name, e in corpus.CORPUS.items():
            print(f"{name:14s} {e.paper_vertices:10.3g} {e.paper_edges:10.3g} "
                  f"{e.paper_components:9d}  {e.description}")
        return 0
    g = corpus.load(args.name)
    print(f"{args.name}: {g.n} vertices, {g.nedges} edges")
    if args.out:
        io.write_matrix_market(args.out, g, comment=f"corpus analogue {args.name}")
        print(f"written to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.graphs.analysis import degree_histogram, summarize

    g = _load_graph(args.graph)
    s = summarize(g)
    print(f"graph: {g.name}")
    for key, value in s.as_rows():
        print(f"  {key:20s} {value}")
    if args.degrees:
        print("degree histogram:")
        hist = degree_histogram(g)
        peak = max(hist.values())
        for d in sorted(hist)[: args.degrees]:
            bar = "#" * max(int(40 * hist[d] / peak), 1)
            print(f"  deg {d:5d}: {hist[d]:7d} {bar}")
    return 0


def _cmd_forest(args: argparse.Namespace) -> int:
    from repro.core.spanning_forest import spanning_forest

    g = _load_graph(args.graph)
    sf = spanning_forest(g.to_matrix())
    print(f"graph: {g.name} ({g.n} vertices, {g.nedges} edges)")
    print(f"components: {sf.n_components}; forest edges: {sf.n_edges}")
    print(f"spanning invariants hold: {sf.is_spanning()}")
    if args.out:
        np.savetxt(
            args.out,
            np.column_stack([sf.edges_u, sf.edges_v]),
            fmt="%d",
        )
        print(f"forest edges written to {args.out}")
    return 0


def _cmd_mcl(args: argparse.Namespace) -> int:
    from repro.mcl import markov_clustering

    g = _load_graph(args.graph)
    res = markov_clustering(
        g.to_matrix(), inflation=args.inflation, max_iterations=args.max_iterations
    )
    print(f"graph: {g.name} ({g.n} vertices)")
    print(f"MCL: {res.n_clusters} clusters, {res.n_iterations} iterations, "
          f"converged={res.converged}")
    for i, c in enumerate(res.clusters()[: args.top]):
        members = ", ".join(map(str, c[:12]))
        more = "" if len(c) <= 12 else f", ... ({len(c)} total)"
        print(f"  cluster {i}: [{members}{more}]")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.explain import diagnose
    from repro.obs.flight import read_flight_jsonl
    from repro.obs.render import write_html_timeline

    try:
        events = read_flight_jsonl(args.record)
    except (OSError, ValueError) as exc:
        print(f"cannot read flight record: {exc}", file=sys.stderr)
        return 2
    diag = diagnose(events)

    if args.report:
        with open(args.report, "w") as fh:
            json.dump(diag.to_dict(), fh, indent=2)
    if args.html:
        write_html_timeline(events, diag.anomalies, args.html,
                            title=f"flight: {diag.run_id}")

    if args.json:
        print(json.dumps(diag.to_dict(), indent=2))
    else:
        print(diag.render())
        for path, what in ((args.report, "JSON report"),
                           (args.html, "HTML timeline")):
            if path:
                print(f"{what} written to {path}")

    detected = set(diag.anomaly_classes())
    if args.expect:
        expected = {c.strip() for c in args.expect.split(",") if c.strip()}
        missing = sorted(expected - detected)
        if missing:
            print(f"expected anomaly class(es) not detected: "
                  f"{', '.join(missing)} (detected: "
                  f"{', '.join(sorted(detected)) or 'none'})", file=sys.stderr)
            return 1
    if args.expect_clean and not diag.healthy:
        why = [] if diag.completed else [f"it did not complete ({diag.error})"]
        if detected:
            why.append(f"detected: {', '.join(sorted(detected))}")
        print(f"expected a clean run but {'; '.join(why)}", file=sys.stderr)
        return 1
    return 0


#: per-layer units of the e2e record whose values do not depend on timing
_EXACT_UNITS = ("count", "words", "B", "model_s")


def _cmd_regress(args: argparse.Namespace) -> int:
    spec_path = os.path.join(os.path.dirname(os.path.abspath(args.baseline)),
                             "BENCHMARK.json")
    try:
        docs = []
        for path in (spec_path, args.baseline, args.current):
            with open(path) as fh:
                docs.append(json.load(fh))
        spec, base, cur = docs
        exact = {m["name"] for m in spec["per_layer"]
                 if m["unit"] in _EXACT_UNITS}
        runs = {"baseline": dict(base["workloads"]),
                "current": dict(cur["workloads"])}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read records: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    for key in ("seed", "smoke"):
        if base.get(key) != cur.get(key):
            print(f"records are not comparable: {key} is {base.get(key)!r} "
                  f"in the baseline, {cur.get(key)!r} in the current record",
                  file=sys.stderr)
            return 2

    problems = []
    checked = 0
    for name in sorted(runs["baseline"].keys() | runs["current"].keys()):
        entries = {side: run.get(name) for side, run in runs.items()}
        missing = [side for side, e in entries.items() if e is None]
        if missing:
            problems.append(f"{name}: missing from the {missing[0]} record")
            continue
        for side, e in entries.items():
            if e.get("failed", 0) > 0 or e.get("attempted", 0) == 0:
                problems.append(f"{name}: {e.get('failed', 0)} failed of "
                                f"{e.get('attempted', 0)} attempted reps in "
                                f"the {side} record")
        old, new = (e.get("layers", {}) for e in entries.values())
        for metric in sorted(exact & (old.keys() | new.keys())):
            checked += 1
            if metric not in old or metric not in new:
                side = "baseline" if metric not in old else "current"
                problems.append(f"{name} {metric}: missing from the {side} "
                                f"record")
            elif old[metric] != new[metric]:
                problems.append(f"{name} {metric}: {old[metric]!r} -> "
                                f"{new[metric]!r}")
    for line in problems:
        print(line)
    verdict = f"{len(problems)} problem(s)" if problems else "all match"
    print(f"regress: {checked} exact counters over {len(runs['baseline'])} "
          f"workloads against {args.baseline}: {verdict}")
    return 1 if problems else 0


def build_parser() -> argparse.ArgumentParser:
    from repro.core.drivers import DRIVERS

    p = argparse.ArgumentParser(
        prog="repro",
        description="LACC reproduction: connected components in (simulated) "
        "distributed memory",
    )
    sub = p.add_subparsers(dest="command", required=True)

    from repro import BASELINES
    from repro.faults import PRESETS

    run = sub.add_parser(
        "run",
        help="run a LACC driver or a baseline under any observers, "
             "optionally under a fault preset whose answer is verified",
    )
    run.add_argument("graph", help=".mtx / edge-list file or corpus name")
    run.add_argument("--driver", default="serial",
                     choices=[*DRIVERS, *BASELINES],
                     help="a LACC driver or a baseline method "
                          "(default: serial)")
    run.add_argument("--backend", choices=["sim", "proc"], default=None,
                     help="communicator backend; proc runs spmd and 2d on "
                          "forked workers (default: $REPRO_BACKEND or sim)")
    run.add_argument("--ranks", type=int, default=None,
                     help="spmd / 2d: ranks (default: 4; 2d: a perfect "
                          "square)")
    run.add_argument("--machine", default=None,
                     help="dist: machine preset (edison/cori/laptop) or "
                          "JSON file (default: edison)")
    run.add_argument("--nodes", default=None, metavar="N[,N...]",
                     help="dist: node count, or a comma-separated sweep "
                          "(default: 4)")
    run.add_argument("--parconnect", action="store_true",
                     help="dist: also run the ParConnect competitor")
    run.add_argument("--faults", default=None, choices=sorted(PRESETS),
                     help="supervise the run under this fault preset and "
                          "verify the answer; the verdict sets the exit "
                          "code")
    run.add_argument("--seed", type=int, default=None,
                     help="fault plan seed (default: 0)")
    run.add_argument("--after", type=int, default=None, metavar="N",
                     help="fire at the N-th collective call (default: the "
                          "preset's)")
    run.add_argument("--phase", default=None,
                     help="crash: restrict to one algorithm phase "
                          "(cond_hook/starcheck/uncond_hook/shortcut)")
    run.add_argument("--rank", type=int, default=None,
                     help="victim rank (default: seeded deterministic pick)")
    run.add_argument("--stall-seconds", type=float, default=None,
                     help="SIGSTOP duration for the stall preset")
    run.add_argument("--interval", type=int, default=None,
                     help="checkpoint every K iterations (default: 1; 0: "
                          "never)")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="durable on-disk checkpoints (default: in-memory)")
    run.add_argument("--max-recoveries", type=int, default=None,
                     help="bounded recovery budget before degrading "
                          "(default: 5); 0 fails loudly instead")
    run.add_argument("--trace", metavar="FILE",
                     help="write a Chrome trace_event JSON (chrome://tracing, "
                          "Perfetto); on proc one pid lane per rank plus the "
                          "conductor, for a sweep one per node count")
    run.add_argument("--record", metavar="FILE",
                     help="write the flight record as JSONL (for repro "
                          "explain)")
    run.add_argument("--top", type=int, nargs="?", const=15, default=None,
                     metavar="N", help="print the N hottest spans (default "
                                       "N: 15)")
    run.add_argument("--flame", action="store_true",
                     help="print an ASCII flamegraph of the run")
    run.add_argument("--analyze", action="store_true",
                     help="per-rank analytics: λ per step and compute/comm/"
                          "wait, measured on proc, else α–β modelled")
    run.add_argument("--json", action="store_true",
                     help="machine-readable JSON record on stdout")
    run.add_argument("--stats", action="store_true",
                     help="component statistics and per-iteration detail")
    run.add_argument("--out", metavar="FILE", help="write labels to this file")
    run.set_defaults(fn=_cmd_run)

    co = sub.add_parser("corpus", help="Table III corpus analogues")
    co.add_argument("name", nargs="?", help="corpus graph name")
    co.add_argument("--list", action="store_true")
    co.add_argument("--out", help="write the graph as MatrixMarket")
    co.set_defaults(fn=_cmd_corpus)

    stats = sub.add_parser("stats", help="structural summary of a graph")
    stats.add_argument("graph")
    stats.add_argument("--degrees", type=int, default=0, metavar="N",
                       help="also print the first N rows of the degree histogram")
    stats.set_defaults(fn=_cmd_stats)

    forest = sub.add_parser("forest", help="spanning forest per component")
    forest.add_argument("graph")
    forest.add_argument("--out", help="write forest edges to this file")
    forest.set_defaults(fn=_cmd_forest)

    mcl = sub.add_parser("mcl", help="Markov clustering (HipMCL-lite)")
    mcl.add_argument("graph")
    mcl.add_argument("--inflation", type=float, default=2.0)
    mcl.add_argument("--max-iterations", type=int, default=100)
    mcl.add_argument("--top", type=int, default=10, help="clusters to print")
    mcl.set_defaults(fn=_cmd_mcl)

    ex = sub.add_parser(
        "explain",
        help="replay a flight record (repro run --record) and diagnose "
             "anomalies (retry storms, stragglers, checkpoint churn)",
    )
    ex.add_argument("record", help=".jsonl flight record to replay")
    ex.add_argument("--report", metavar="FILE",
                    help="write the machine-readable diagnosis as JSON")
    ex.add_argument("--html", metavar="FILE",
                    help="write a self-contained HTML timeline")
    ex.add_argument("--json", action="store_true",
                    help="print the diagnosis as JSON instead of text")
    ex.add_argument("--expect", metavar="CLASSES",
                    help="comma-separated anomaly classes that must be "
                         "detected; exit 1 otherwise (CI gate)")
    ex.add_argument("--expect-clean", action="store_true",
                    help="exit 1 if any anomaly is detected or the run did "
                         "not complete (CI gate)")
    ex.set_defaults(fn=_cmd_explain)

    rg = sub.add_parser(
        "regress",
        help="check an e2e benchmark record against the committed one; "
             "exit 1 if a deterministic counter moved or a rep failed",
    )
    rg.add_argument("--current", metavar="PATH", required=True,
                    help="all-workload record from benchmarks/e2e/run.py --out")
    rg.add_argument("--baseline", default="BENCH_e2e.json",
                    help="committed record (default: BENCH_e2e.json); the "
                         "BENCHMARK.json next to it gives the units")
    rg.set_defaults(fn=_cmd_regress)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
