"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``cc``
    Label connected components of a graph file (MatrixMarket ``.mtx`` or
    whitespace edge list, optionally gzipped) with LACC or any baseline.
``simulate``
    Run simulated-distributed LACC (and optionally ParConnect) on a graph
    file or a named corpus analogue across a node sweep.
``profile``
    Run LACC under a :mod:`repro.obs` tracer and render/export the span
    tree: top table, flamegraph, Chrome ``trace_event`` JSON, JSON lines.
``corpus``
    List the Table III corpus analogues or dump one to a file.
``chaos``
    Run any LACC driver under the :mod:`repro.recovery` supervisor with
    a fault preset of :mod:`repro.faults` — real SIGKILLs, SIGSTOP
    stragglers and corrupt shared-memory frames on the proc backend, or
    the simulator's typed errors, delays and crashes — and verify the
    answer (:mod:`repro.chaos`): byte-identical labels, union–find
    oracle, resume-not-restart.  ``--max-recoveries 0`` fails loudly
    instead of recovering; ``--record`` writes the flight record.
``mcl``
    Markov-cluster a graph and print the clusters (HipMCL-lite).
``analyze``
    Per-rank load-imbalance analytics of a simulated run: λ = max/mean
    requests per rank for each LACC step, compute/comm/delay attribution
    per phase, straggler identification (:mod:`repro.obs.analytics`).
``explain``
    Replay a ``.jsonl`` flight record (:mod:`repro.obs.flight`, e.g. from
    ``chaos --record``) and print a human-readable diagnosis of what went
    wrong (convergence stalls, stragglers, retry storms, checkpoint churn).
``regress``
    Compare an end-to-end benchmark record (``benchmarks/e2e/run.py
    --out``) with the committed ``BENCH_e2e.json``: every deterministic
    per-layer counter must match exactly and every rep must have passed.

Examples
--------
::

    python -m repro cc graph.mtx --method lacc --stats
    python -m repro cc graph.mtx --json --trace cc.trace.json
    python -m repro simulate archaea --machine edison --nodes 1,16,64
    python -m repro profile archaea --trace out.json --flame
    python -m repro profile archaea --machine edison --nodes 16
    python -m repro corpus --list
    python -m repro corpus eukarya --out eukarya.mtx
    python -m repro chaos archaea --preset kill --seed 3 --record chaos.jsonl
    python -m repro chaos archaea --driver 2d --preset shrink --json
    python -m repro chaos archaea --driver spmd --preset crash --after 40
    python -m repro chaos archaea --driver dist --preset stragglers --nodes 16
    python -m repro chaos archaea --driver dist --preset none --record fr.jsonl
    python -m repro mcl similarities.mtx --inflation 2.0
    python -m repro analyze archaea --machine edison --nodes 16
    python -m repro explain fr.jsonl --html fr.html
    python -m repro explain fr.jsonl --json
    python -m repro regress --current BENCH_current.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
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


def _component_summary(labels: np.ndarray) -> dict:
    """Method-agnostic component statistics — the ``--stats`` payload
    shared by every ``cc`` method."""
    _, sizes = np.unique(labels, return_counts=True)
    return {
        "components": int(sizes.size),
        "largest_component": int(sizes.max()) if sizes.size else 0,
        "singleton_components": int(np.count_nonzero(sizes == 1)),
    }


def _iteration_records(stats, model: bool = False) -> List[dict]:
    """Per-iteration stats as plain dicts (the ``--json`` payload)."""
    out = []
    for it in stats.iterations:
        rec = {
            "iteration": it.iteration,
            "active_vertices": it.active_vertices,
            "cond_hooks": it.cond_hooks,
            "uncond_hooks": it.uncond_hooks,
            "converged_vertices": it.converged_vertices,
            "step_seconds": dict(
                it.step_model_seconds if model else it.step_seconds
            ),
        }
        if model:
            rec["words_communicated"] = it.words_communicated
            rec["messages_sent"] = it.messages_sent
        out.append(rec)
    return out


def _cmd_cc(args: argparse.Namespace) -> int:
    import repro
    from repro.core import lacc
    from repro.obs import Tracer, activate

    g = _load_graph(args.graph)
    tracer = Tracer() if args.trace else None
    res = None
    t0 = time.perf_counter()
    if args.method == "lacc":
        with activate(tracer):
            res = lacc(g.to_matrix())
        labels = res.labels
    elif args.trace:
        with activate(tracer), tracer.span(args.method, "cc"):
            labels = repro.connected_components(g.u, g.v, g.n, method=args.method)
    else:
        labels = repro.connected_components(g.u, g.v, g.n, method=args.method)
    dt = time.perf_counter() - t0

    record = {
        "graph": g.name,
        "vertices": g.n,
        "edges": g.nedges,
        "method": args.method,
        "seconds": dt,
        **_component_summary(labels),
    }
    if res is not None:
        record["iterations"] = res.n_iterations
        record["iteration_stats"] = _iteration_records(res.stats)

    if args.trace:
        from repro.obs import write_chrome_trace

        write_chrome_trace(tracer, args.trace)

    if args.json:
        print(json.dumps(record, indent=2))
    else:
        print(f"graph: {g.name} ({g.n} vertices, {g.nedges} edges)")
        print(f"components: {record['components']}   [{args.method}, {dt*1e3:.1f} ms]")
        if args.stats:
            print(f"largest component: {record['largest_component']}   "
                  f"singletons: {record['singleton_components']}")
        if res is not None:
            print(f"iterations: {res.n_iterations}")
            if args.stats:
                for it in res.stats.iterations:
                    print(
                        f"  iter {it.iteration}: active={it.active_vertices} "
                        f"hooks={it.cond_hooks}+{it.uncond_hooks} "
                        f"converged={it.converged_vertices}"
                    )
        if args.trace:
            print(f"trace written to {args.trace}")
    if args.out:
        np.savetxt(args.out, labels, fmt="%d")
        if not args.json:
            print(f"labels written to {args.out}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.baselines.parconnect import parconnect
    from repro.core.lacc_dist import lacc_dist
    from repro.mpisim.machine import load_machine

    machine = load_machine(args.machine)
    g = _load_graph(args.graph)
    A = g.to_matrix()
    nodes_list = [int(x) for x in args.nodes.split(",")]

    records: List[dict] = []
    traces: List[dict] = []
    for nodes in nodes_list:
        if args.trace:
            from repro.obs import Tracer, activate, chrome_trace

            tr = Tracer()
            with activate(tr):
                r = lacc_dist(A, machine, nodes=nodes)
            traces.append(
                chrome_trace(tr, pid=nodes, process_name=f"{machine.name} nodes={nodes}")
            )
        else:
            r = lacc_dist(A, machine, nodes=nodes)
        rec = {
            "nodes": nodes,
            "ranks": r.ranks,
            "seconds": r.simulated_seconds,
            "iterations": r.n_iterations,
            "components": r.n_components,
            "words": r.cost.total_words,
            "messages": r.cost.total_messages,
            "step_seconds": r.stats.step_totals(model=True),
            "iteration_stats": _iteration_records(r.stats, model=True),
        }
        if args.parconnect:
            pc = parconnect(g.n, g.u, g.v, machine, nodes=nodes)
            rec["parconnect_seconds"] = pc.simulated_seconds
        records.append(rec)

    if args.trace:
        from repro.obs import merge_chrome_traces, write_chrome_trace

        write_chrome_trace(merge_chrome_traces(traces), args.trace)

    if args.json:
        print(json.dumps({
            "graph": g.name,
            "vertices": g.n,
            "edges": g.nedges,
            "machine": machine.name,
            "runs": records,
        }, indent=2))
        return 0

    print(f"graph: {g.name} ({g.n} vertices, {g.nedges} edges) "
          f"on simulated {machine.name}")
    hdr = f"{'nodes':>6} {'ranks':>6} {'LACC (ms)':>10}"
    if args.parconnect:
        hdr += f" {'ParConnect (ms)':>16} {'speedup':>8}"
    print(hdr)
    for rec in records:
        line = f"{rec['nodes']:6d} {rec['ranks']:6d} {rec['seconds']*1e3:10.3f}"
        if args.parconnect:
            line += (f" {rec['parconnect_seconds']*1e3:16.3f}"
                     f" {rec['parconnect_seconds']/rec['seconds']:7.2f}x")
        print(line)
        if args.stats:
            steps = rec["step_seconds"]
            breakdown = "  ".join(f"{s}={t*1e3:.3f}ms" for s, t in steps.items())
            print(f"       steps: {breakdown}")
            for it in rec["iteration_stats"]:
                print(
                    f"       iter {it['iteration']}: "
                    f"active={it['active_vertices']} "
                    f"words={it['words_communicated']} "
                    f"msgs={it['messages_sent']}"
                )
    if args.trace:
        print(f"trace written to {args.trace} "
              f"(one pid lane per node count)")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import (
        Tracer, activate, chrome_trace, flamegraph, top_table,
        write_chrome_trace, write_jsonl,
    )

    g = _load_graph(args.graph)
    A = g.to_matrix()
    if getattr(args, "backend", None) == "proc":
        from repro.obs.profile import trace_lacc_proc

        res, tracer, obs = trace_lacc_proc(g, ranks=args.ranks,
                                           flight_path=args.flight)
        total = sum(r.duration for r in tracer.roots)
        n_spans = sum(1 for _ in tracer.walk())
        n_rank_spans = sum(
            sum(1 for _ in tr.walk()) for tr in obs.tracers.values()
        )
        print(f"graph: {g.name} ({g.n} vertices, {g.nedges} edges)")
        print(f"components: {res.n_components} in {res.n_iterations} "
              f"iterations, {total*1e3:.3f} ms "
              f"[wall seconds, {obs.size} worker ranks]")
        print(f"trace: {n_spans} conductor spans + {n_rank_spans} worker "
              f"spans across {obs.size} ranks")
        fl_drop = sum(obs.flight_dropped.values())
        if fl_drop:
            print(f"warning: {fl_drop} flight events dropped")
        print()
        print(top_table(tracer, limit=args.top))
        if args.trace:
            write_chrome_trace(obs.merged_trace(conductor=tracer), args.trace)
            print(f"\nmerged Chrome trace written to {args.trace} "
                  f"(one pid lane per rank + conductor; open in "
                  "chrome://tracing or https://ui.perfetto.dev)")
        if args.flight:
            print(f"merged flight record written to {args.flight}")
        if args.jsonl:
            write_jsonl(tracer, args.jsonl)
            print(f"conductor span records written to {args.jsonl}")
        return 0
    tracer = Tracer()
    if args.machine:
        from repro.core.lacc_dist import lacc_dist
        from repro.mpisim.machine import load_machine

        machine = load_machine(args.machine)
        with activate(tracer):  # a fresh tracer runs on the α–β clock
            res = lacc_dist(A, machine, nodes=args.nodes)
        clock = f"α–β model seconds ({machine.name}, {args.nodes} nodes, {res.ranks} ranks)"
        total = res.simulated_seconds
    else:
        from repro.core.lacc import lacc

        with activate(tracer):
            res = lacc(A)
        clock = "wall seconds"
        total = sum(r.duration for r in tracer.roots)

    n_spans = sum(1 for _ in tracer.walk())
    print(f"graph: {g.name} ({g.n} vertices, {g.nedges} edges)")
    print(f"components: {res.n_components} in {res.n_iterations} iterations, "
          f"{total*1e3:.3f} ms [{clock}]")
    print(f"trace: {n_spans} spans, {tracer.max_depth()} levels deep")
    print()
    print(top_table(tracer, limit=args.top))
    if args.flame:
        print()
        print(flamegraph(tracer))
    if args.trace:
        write_chrome_trace(
            chrome_trace(tracer, process_name=f"repro {g.name}"), args.trace
        )
        print(f"\nChrome trace written to {args.trace} "
              "(open in chrome://tracing or https://ui.perfetto.dev)")
    if args.jsonl:
        write_jsonl(tracer, args.jsonl)
        print(f"span records written to {args.jsonl}")
    return 0


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


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import chaos_run, preset_flags
    from repro.core.drivers import DRIVERS

    flags = dict(after=args.after, phase=args.phase, rank=args.rank,
                 stall_seconds=args.stall_seconds)
    stray = sorted(k for k, v in flags.items() if v is not None
                   and k not in preset_flags(args.preset, **flags))
    if stray:
        print(f"repro chaos: preset {args.preset!r} takes no "
              + ", ".join("--" + k.replace("_", "-") for k in stray),
              file=sys.stderr)
        return 2
    g = _load_graph(args.graph)
    report = chaos_run(
        g,
        driver=args.driver,
        ranks=args.ranks,
        preset=args.preset,
        seed=args.seed,
        backend=args.backend,
        machine=args.machine,
        nodes=args.nodes,
        checkpoint_interval=args.interval,
        checkpoint_dir=args.checkpoint_dir,
        max_recoveries=args.max_recoveries,
        record_path=args.record,
        trace_path=args.trace,
        **flags,
    )

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
        return 0 if report.ok else 1

    where = f" × {args.ranks} ranks" if DRIVERS[args.driver].runs_at else ""
    print(f"graph: {g.name} ({g.n} vertices, {g.nedges} edges)")
    print(f"chaos '{args.preset}' on {args.driver}{where} "
          f"[{report.backend} backend], seed {args.seed}: "
          + (f"failed loudly: {report.error}"
             if report.error else
             f"{report.components} components in {report.iterations} "
             f"iterations, {report.attempts} attempt(s), "
             f"{report.recoveries} "
             f"recover{'y' if report.recoveries == 1 else 'ies'}"
             + (f", shrunk to {report.shrunk_to} ranks"
                if report.shrunk_to is not None else "")))
    print(f"injected: {report.injected or 'nothing (schedule never fired)'}")
    if not report.error:
        for line in (
            ("byte-identical to fault-free run", report.byte_identical),
            ("labels match union-find oracle", report.oracle_ok),
            ("resumed (no restart from scratch)", report.resumed),
        ):
            print(f"  {'PASS' if line[1] else 'FAIL'}  {line[0]}")
    if report.recovery_events:
        print("recovery events:")
        for e in report.recovery_events:
            where = "-" if e["iteration"] is None else f"iter {e['iteration']}"
            print(f"  {e['action']:<12s} {where:<8s} {e['detail']}")
    if report.simulated_seconds is not None:
        print(f"simulated time: {report.simulated_seconds * 1e3:.3f} ms "
              f"(fault-free {report.reference_seconds * 1e3:.3f} ms)")
    if report.anomaly_classes:
        print(f"anomalies detected: {', '.join(report.anomaly_classes)}")
    if args.record:
        print(f"flight record written to {args.record} "
              f"(diagnose with: python -m repro explain {args.record})")
    if args.trace:
        print(f"trace written to {args.trace}")
    print(f"wall time: {report.wall_seconds:.2f}s")
    return 0 if report.ok else 1


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


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    if getattr(args, "backend", "sim") == "proc":
        from repro.obs.analytics import analyze_proc
        from repro.obs.profile import trace_lacc_proc

        res, _tracer, obs = trace_lacc_proc(g, ranks=args.ranks)
        try:
            rep = analyze_proc(obs, n_iterations=res.n_iterations)
        except ValueError as exc:
            print(f"cannot analyze: {exc}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(rep.to_dict(), indent=2))
        else:
            print(f"graph: {g.name} ({g.n} vertices, {g.nedges} edges)")
            print(rep.render())
        return 0
    from repro.core.lacc_dist import lacc_dist
    from repro.mpisim.machine import load_machine
    from repro.obs.analytics import analyze

    machine = load_machine(args.machine)
    res = lacc_dist(g.to_matrix(), machine, nodes=args.nodes, trace_comm=True)
    try:
        rep = analyze(res)
    except ValueError as exc:
        print(f"cannot analyze: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(rep.to_dict(), indent=2))
    else:
        print(f"graph: {g.name} ({g.n} vertices, {g.nedges} edges)")
        print(rep.render())
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
        write_html_timeline(events, args.html, title=f"flight: {diag.run_id}")

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
    if args.expect_clean and detected:
        print(f"expected a clean run but detected: "
              f"{', '.join(sorted(detected))}", file=sys.stderr)
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

    cc = sub.add_parser("cc", help="label connected components")
    cc.add_argument("graph", help=".mtx / edge-list file or corpus name")
    cc.add_argument("--method", default="lacc",
                    choices=["lacc", "union-find", "sv", "bfs", "label-prop", "fastsv"])
    cc.add_argument("--stats", action="store_true",
                    help="component statistics (plus per-iteration detail for lacc)")
    cc.add_argument("--json", action="store_true",
                    help="machine-readable JSON output on stdout")
    cc.add_argument("--trace", metavar="FILE",
                    help="write a Chrome trace_event JSON of the run")
    cc.add_argument("--out", help="write labels to this file")
    cc.set_defaults(fn=_cmd_cc)

    sim = sub.add_parser("simulate", help="simulated distributed run")
    sim.add_argument("graph")
    sim.add_argument(
        "--machine", default="edison",
        help="preset (edison/cori/laptop) or path to a machine JSON file",
    )
    sim.add_argument("--nodes", default="1,4,16,64")
    sim.add_argument("--parconnect", action="store_true",
                     help="also run the ParConnect competitor")
    sim.add_argument("--stats", action="store_true",
                     help="per-step / per-iteration model breakdown per node count")
    sim.add_argument("--json", action="store_true",
                     help="machine-readable JSON output on stdout")
    sim.add_argument("--trace", metavar="FILE",
                     help="write a merged Chrome trace (one pid lane per node count)")
    sim.set_defaults(fn=_cmd_simulate)

    prof = sub.add_parser(
        "profile",
        help="trace a LACC run (iteration → step → primitive spans)",
    )
    prof.add_argument("graph", help=".mtx / edge-list file or corpus name")
    prof.add_argument("--machine", default=None,
                      help="profile the simulated-distributed run on this machine "
                           "(default: serial wall-clock run)")
    prof.add_argument("--nodes", type=int, default=1,
                      help="node count for --machine runs")
    prof.add_argument("--trace", metavar="FILE",
                      help="write Chrome trace_event JSON (chrome://tracing, Perfetto)")
    prof.add_argument("--jsonl", metavar="FILE",
                      help="write one JSON span record per line")
    prof.add_argument("--top", type=int, default=15,
                      help="rows in the hotspot table")
    prof.add_argument("--flame", action="store_true",
                      help="also print an ASCII flamegraph")
    prof.add_argument("--backend", choices=["proc"], default=None,
                      help="proc: run literal SPMD on forked workers with "
                           "per-rank tracing; --trace then emits one merged "
                           "Chrome trace with a pid lane per rank")
    prof.add_argument("--ranks", type=int, default=4,
                      help="worker ranks for --backend=proc")
    prof.add_argument("--flight", metavar="FILE",
                      help="with --backend=proc: write the merged flight "
                           "record (conductor + rank_event rows) as JSONL")
    prof.set_defaults(fn=_cmd_profile)

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

    from repro.faults import PRESETS

    ch = sub.add_parser(
        "chaos",
        help="run a LACC driver under a fault preset (real signals on the "
             "proc backend) and verify the answer: byte-identical labels, "
             "union-find oracle, resume-not-restart",
    )
    ch.add_argument("graph", help=".mtx / edge-list file or corpus name")
    ch.add_argument("--driver", default="spmd", choices=list(DRIVERS),
                    help="which LACC driver to run (default: spmd)")
    ch.add_argument("--backend", default=os.environ.get("REPRO_BACKEND", "proc"),
                    choices=["proc", "sim"],
                    help="proc delivers real signals; sim models the same "
                         "classified errors (default: $REPRO_BACKEND or proc)")
    ch.add_argument("--preset", default="kill",
                    choices=sorted(PRESETS) + ["none"],
                    help="fault scenario (default: kill)")
    ch.add_argument("--seed", type=int, default=0, help="fault plan seed")
    ch.add_argument("--after", type=int, default=None, metavar="N",
                    help="fire at the N-th collective call (default: the "
                         "preset's)")
    ch.add_argument("--phase", default=None,
                    help="crash: restrict to one algorithm phase "
                         "(cond_hook/starcheck/uncond_hook/shortcut)")
    ch.add_argument("--rank", type=int, default=None,
                    help="victim rank (default: seeded deterministic pick)")
    ch.add_argument("--stall-seconds", type=float, default=None,
                    help="SIGSTOP duration for the stall preset")
    ch.add_argument("--ranks", type=int, default=4,
                    help="ranks for spmd / 2d (a perfect square)")
    ch.add_argument("--machine", default="edison",
                    help="machine preset or JSON file for --driver dist")
    ch.add_argument("--nodes", type=int, default=4,
                    help="node count for --driver dist")
    ch.add_argument("--interval", type=int, default=1,
                    help="checkpoint every K iterations (0: never)")
    ch.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                    help="durable on-disk checkpoints (default: in-memory)")
    ch.add_argument("--max-recoveries", type=int, default=5,
                    help="bounded recovery budget before degrading; 0 "
                         "fails loudly instead")
    ch.add_argument("--record", metavar="FILE",
                    help="write the flight record as JSONL (for repro explain)")
    ch.add_argument("--trace", metavar="FILE",
                    help="write a Chrome trace of the supervised run")
    ch.add_argument("--json", action="store_true",
                    help="machine-readable JSON report on stdout")
    ch.set_defaults(fn=_cmd_chaos)

    mcl = sub.add_parser("mcl", help="Markov clustering (HipMCL-lite)")
    mcl.add_argument("graph")
    mcl.add_argument("--inflation", type=float, default=2.0)
    mcl.add_argument("--max-iterations", type=int, default=100)
    mcl.add_argument("--top", type=int, default=10, help="clusters to print")
    mcl.set_defaults(fn=_cmd_mcl)

    an = sub.add_parser(
        "analyze",
        help="per-rank load-imbalance analytics (λ per step, stragglers)",
    )
    an.add_argument("graph", help=".mtx / edge-list file or corpus name")
    an.add_argument("--machine", default="edison",
                    help="preset (edison/cori/laptop) or a machine JSON file")
    an.add_argument("--nodes", type=int, default=16)
    an.add_argument("--json", action="store_true",
                    help="emit the report as JSON instead of text")
    an.add_argument("--backend", choices=["sim", "proc"], default="sim",
                    help="sim: α–β cost-model attribution (default); "
                         "proc: run on forked workers and report *measured* "
                         "per-step λ and compute/comm/wait from worker "
                         "timelines")
    an.add_argument("--ranks", type=int, default=4,
                    help="worker ranks for --backend=proc")
    an.set_defaults(fn=_cmd_analyze)

    ex = sub.add_parser(
        "explain",
        help="replay a flight record (repro chaos --record) and diagnose "
             "anomalies (stalls, stragglers, retry storms)",
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
                    help="exit 1 if any anomaly is detected (CI gate)")
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
