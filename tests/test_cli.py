"""Tests for the command-line interface (python -m repro)."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.graphs import generators as gen
from repro.graphs import io as gio

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def mtx(tmp_path):
    g = gen.component_mixture([8, 5, 3], seed=1)
    p = tmp_path / "g.mtx"
    gio.write_matrix_market(p, g)
    return str(p)


def _run(*argv):
    """The exit code of ``repro run`` with *argv*."""
    return main(["run", *argv])


def _record(capsys, *argv):
    """The ``--json`` record of ``repro run`` with *argv* (exit 0)."""
    assert _run(*argv, "--json") == 0
    return json.loads(capsys.readouterr().out)


BASELINE_METHODS = ("union-find", "sv", "bfs", "label-prop", "fastsv")


class TestCC:
    """Labelling with the serial driver or a baseline method."""

    def test_basic(self, mtx, capsys):
        assert _run(mtx) == 0
        out = capsys.readouterr().out
        assert "serial [sim backend]: 3 components in" in out

    def test_all_methods(self, mtx, capsys):
        for method in ("serial", *BASELINE_METHODS):
            assert _run(mtx, "--driver", method) == 0
            assert ": 3 components" in capsys.readouterr().out

    def test_stats(self, mtx, capsys):
        assert _run(mtx, "--stats") == 0
        out = capsys.readouterr().out
        assert "iterations," in out and "iter 1:" in out

    def test_labels_out(self, mtx, tmp_path, capsys):
        out_file = tmp_path / "labels.txt"
        assert _run(mtx, "--out", str(out_file)) == 0
        labels = np.loadtxt(out_file, dtype=np.int64)
        assert labels.size == 16
        assert np.unique(labels).size == 3

    def test_corpus_name_as_graph(self, capsys):
        assert _run("queen_4147", "--driver", "union-find") == 0
        assert ": 1 components" in capsys.readouterr().out

    def test_edge_list_input(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n2 3\n")
        assert _run(str(p)) == 0
        assert ": 2 components" in capsys.readouterr().out

    def test_stats_works_for_every_method(self, mtx, capsys):
        for method in ("serial", *BASELINE_METHODS):
            assert _run(mtx, "--driver", method, "--stats") == 0
            out = capsys.readouterr().out
            assert "largest component: 8" in out, method
            assert "singletons: 0" in out, method

    def test_json_output(self, mtx, capsys):
        d = _record(capsys, mtx)
        assert d["driver"] == "serial"
        run, = d["runs"]
        assert run["components"] == 3
        assert run["largest_component"] == 8
        assert len(run["iteration_stats"]) == run["iterations"]

    def test_json_output_baseline_method(self, mtx, capsys):
        run, = _record(capsys, mtx, "--driver", "bfs")["runs"]
        assert run["components"] == 3
        assert run["iteration_stats"] is None

    def test_trace_output(self, mtx, tmp_path, capsys):
        f = tmp_path / "trace.json"
        assert _run(mtx, "--trace", str(f)) == 0
        doc = json.load(open(f))
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"lacc", "iteration", "cond_hook", "mxv"} <= names

    def test_trace_output_baseline_method(self, mtx, tmp_path):
        f = tmp_path / "trace.json"
        assert _run(mtx, "--driver", "union-find", "--trace", str(f)) == 0
        doc = json.load(open(f))
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "B"}
        assert "union-find" in names


class TestSimulate:
    """``dist`` on the simulated machine, over a node sweep."""

    def test_basic(self, mtx, capsys):
        assert _run(mtx, "--driver", "dist", "--nodes", "1,4") == 0
        out = capsys.readouterr().out
        assert "dist on simulated Edison, 1 nodes" in out
        assert "dist on simulated Edison, 4 nodes" in out
        assert "ms simulated" in out

    def test_with_parconnect(self, mtx, capsys):
        assert _run(mtx, "--driver", "dist", "--nodes", "4",
                    "--parconnect") == 0
        out = capsys.readouterr().out
        assert "ParConnect" in out and "x LACC's" in out

    def test_cori(self, mtx, capsys):
        assert _run(mtx, "--driver", "dist", "--machine", "cori",
                    "--nodes", "1") == 0
        assert "Cori" in capsys.readouterr().out

    def test_stats_breakdown(self, mtx, capsys):
        assert _run(mtx, "--driver", "dist", "--nodes", "1,4", "--stats") == 0
        out = capsys.readouterr().out
        assert "steps:" in out and "cond_hook=" in out
        assert "iter 1:" in out and "words=" in out

    def test_json_output(self, mtx, capsys):
        d = _record(capsys, mtx, "--driver", "dist", "--nodes", "1,4")
        assert [r["nodes"] for r in d["runs"]] == [1, 4]
        run = d["runs"][0]
        assert run["machine"] == "Edison"
        assert run["components"] == 3
        assert run["simulated_seconds"] > 0
        assert sum(it["words_communicated"] for it in run["iteration_stats"]) > 0

    def test_trace_merges_node_counts(self, mtx, tmp_path):
        f = tmp_path / "sweep.json"
        assert _run(mtx, "--driver", "dist", "--nodes", "1,4",
                    "--trace", str(f)) == 0
        doc = json.load(open(f))
        assert {e["pid"] for e in doc["traceEvents"]} == {1, 4}


class TestProfile:
    """The hotspot table, flamegraph and Chrome trace of a traced run."""

    def test_serial(self, mtx, capsys):
        assert _run(mtx, "--top") == 0
        out = capsys.readouterr().out
        assert "levels deep" in out and "wall seconds" in out
        assert "mxv" in out  # hotspot table includes primitives

    def test_simulated(self, mtx, capsys):
        assert _run(mtx, "--driver", "dist", "--machine", "edison",
                    "--nodes", "4", "--top") == 0
        out = capsys.readouterr().out
        assert "model seconds" in out and "ranks" in out

    def test_chrome_trace_acceptance(self, mtx, tmp_path, capsys):
        """The headline check: --trace emits valid trace_event JSON with
        >= 3 nesting levels and per-primitive counters."""
        f = tmp_path / "out.json"
        assert _run(mtx, "--trace", str(f)) == 0
        doc = json.load(open(f))
        ev = doc["traceEvents"]
        # matched B/E pairs, monotone timestamps
        stack, depth, max_depth = [], 0, 0
        last_ts = -1.0
        for e in ev:
            if e["ph"] == "M":
                continue
            assert e["ts"] >= last_ts
            last_ts = e["ts"]
            if e["ph"] == "B":
                stack.append(e["name"])
                max_depth = max(max_depth, len(stack))
            else:
                assert stack.pop() == e["name"]
        assert stack == []
        assert max_depth >= 3
        mxv = [e for e in ev if e["name"] == "mxv" and e["ph"] == "B"]
        assert mxv and all("flops" in e["args"] for e in mxv)

    def test_flame(self, mtx, capsys):
        assert _run(mtx, "--flame") == 0
        out = capsys.readouterr().out
        assert "#" in out and "lacc" in out  # flamegraph bars


class TestCorpus:
    def test_list(self, capsys):
        assert main(["corpus", "--list"]) == 0
        out = capsys.readouterr().out
        assert "archaea" in out and "iso_m100" in out

    def test_bare_command_lists(self, capsys):
        assert main(["corpus"]) == 0
        assert "eukarya" in capsys.readouterr().out

    def test_dump(self, tmp_path, capsys):
        out_file = tmp_path / "q.mtx"
        assert main(["corpus", "queen_4147", "--out", str(out_file)]) == 0
        g = gio.read_matrix_market(out_file)
        assert g.n == 4096


class TestStats:
    def test_basic(self, mtx, capsys):
        assert main(["stats", mtx]) == 0
        out = capsys.readouterr().out
        assert "components" in out and "regime" in out

    def test_degrees(self, mtx, capsys):
        assert main(["stats", mtx, "--degrees", "3"]) == 0
        assert "degree histogram" in capsys.readouterr().out

    def test_corpus_name(self, capsys):
        assert main(["stats", "M3"]) == 0
        assert "M3-like" in capsys.readouterr().out


class TestForest:
    def test_basic(self, mtx, capsys):
        assert main(["forest", mtx]) == 0
        out = capsys.readouterr().out
        assert "components: 3" in out
        assert "spanning invariants hold: True" in out

    def test_out_file(self, mtx, tmp_path, capsys):
        f = tmp_path / "forest.txt"
        assert main(["forest", mtx, "--out", str(f)]) == 0
        edges = np.loadtxt(f, dtype=np.int64, ndmin=2)
        assert edges.shape == (13, 2)  # 16 vertices - 3 components


class TestMCL:
    def test_basic(self, tmp_path, capsys):
        # two bridged triangles
        g = gen.EdgeList(6, [0, 1, 2, 3, 4, 5, 0], [1, 2, 0, 4, 5, 3, 3])
        p = tmp_path / "g.mtx"
        gio.write_matrix_market(p, g)
        assert main(["mcl", str(p)]) == 0
        out = capsys.readouterr().out
        assert "2 clusters" in out


class TestFaults:
    """``repro run --faults`` under the collective-fault presets: fail
    loudly or answer right."""

    def test_transient_preset_matches(self, mtx, capsys):
        assert _run(mtx, "--driver", "spmd", "--faults", "flaky", "--seed",
                    "1", "--backend", "sim") == 0
        out = capsys.readouterr().out
        assert "spmd × 4 ranks [sim backend], faults 'flaky'" in out
        assert "PASS  labels match union-find oracle" in out

    def test_permanent_preset_fails_loudly(self, mtx, capsys):
        # failing loudly is the documented contract — exit code stays 0
        assert _run(mtx, "--driver", "spmd", "--faults", "permanent",
                    "--seed", "0", "--max-recoveries", "0",
                    "--backend", "sim") == 0
        out = capsys.readouterr().out
        assert "failed loudly" in out and "CollectiveError" in out

    def test_json_record(self, mtx, capsys):
        run, = _record(capsys, mtx, "--driver", "spmd", "--faults", "outage",
                       "--seed", "2", "--backend", "sim")["runs"]
        assert run["preset"] == "outage"
        assert run["injected"]["fail"] > 0
        assert run["ok"] and run["oracle_ok"] and run["error"] is None

    def test_events_listing(self, mtx, tmp_path, capsys):
        # the flight record holds one fault row per injected fault
        path = tmp_path / "flaky.jsonl"
        run, = _record(capsys, mtx, "--driver", "spmd", "--faults", "flaky",
                       "--seed", "0", "--backend", "sim",
                       "--record", str(path))["runs"]
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        faults = [r["data"] for r in rows if r["kind"] == "fault"]
        assert len(faults) == sum(run["injected"].values()) > 0
        for row in faults:
            assert {"collective", "fault_kind", "attempt"} <= set(row)

    def test_machine_mode_reports_priced_retries(self, mtx, tmp_path, capsys):
        trace = tmp_path / "faults.json"
        run, = _record(capsys, mtx, "--driver", "dist", "--faults", "outage",
                       "--seed", "0", "--machine", "laptop", "--nodes", "1",
                       "--trace", str(trace))["runs"]
        assert run["simulated_seconds"] > run["reference_seconds"]
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("name") == "retry" for e in events)

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "g.mtx", "--faults", "gremlins"])

    def test_flag_the_preset_does_not_take_exits_2(self, mtx, capsys):
        assert _run(mtx, "--faults", "flaky", "--after", "3",
                    "--backend", "sim") == 2
        assert "takes no --after" in capsys.readouterr().err

    def test_json_mismatch_exits_1(self, mtx, capsys, monkeypatch):
        import repro.graphs.validate as validate

        monkeypatch.setattr(validate, "same_partition", lambda a, b: False)
        assert _run(mtx, "--driver", "spmd", "--faults", "flaky",
                    "--backend", "sim", "--json") == 1
        run, = json.loads(capsys.readouterr().out)["runs"]
        assert run["oracle_ok"] is False and run["ok"] is False


#: ``repro run archaea --driver D --faults crash --seed 0 --after 5
#: --backend sim --json``: (components, iterations, attempts, recoveries,
#: oracle_ok, [(event action, event iteration)], simulated_seconds)
RECOVER_PINS = {
    "serial": (3001, 5, 1, 0, True, [], None),
    "dist": (3001, 5, 2, 1, True, [("fault", None), ("audit_repair", None)],
             0.0035736300044943844),
    "spmd": (3001, 5, 2, 1, True, [("fault", None), ("audit_repair", None)],
             None),
    "2d": (3001, 5, 2, 1, True, [("fault", None), ("audit_repair", None)],
           None),
}


class TestRecover:
    @pytest.mark.parametrize("driver", sorted(RECOVER_PINS))
    def test_crash_record_is_pinned(self, driver, capsys):
        code = _run("archaea", "--driver", driver, "--faults", "crash",
                    "--seed", "0", "--after", "5", "--backend", "sim", "--json")
        rec, = json.loads(capsys.readouterr().out)["runs"]
        got = (
            rec["components"], rec["iterations"], rec["attempts"],
            rec["recoveries"], rec["oracle_ok"],
            [(e["action"], e["iteration"]) for e in rec["recovery_events"]],
            rec["simulated_seconds"],
        )
        assert got == RECOVER_PINS[driver]
        # the crash fires before the first checkpoint: a fresh start
        assert rec["resumed"] is (driver == "serial")
        assert code == (0 if rec["ok"] else 1)


class TestAnalyze:
    def test_json_output(self, mtx, capsys):
        run, = _record(capsys, mtx, "--driver", "dist", "--nodes", "4",
                       "--analyze")["runs"]
        assert {"steps", "phases", "overall_lambda"} <= set(run["analytics"])

    def test_unanalyzable_result_exits_with_message(self, mtx, capsys,
                                                    monkeypatch):
        import repro.obs.analytics as analytics

        def boom(result, edges_per_rank=None):
            raise ValueError("result has no cost model to analyze")

        monkeypatch.setattr(analytics, "analyze", boom)
        assert _run(mtx, "--driver", "dist", "--nodes", "4", "--analyze") == 2
        err = capsys.readouterr().err
        assert "cannot analyze" in err and "no cost model" in err

    def test_driver_without_cost_model_cannot_analyze(self, mtx, capsys):
        assert _run(mtx, "--driver", "spmd", "--backend", "sim",
                    "--analyze") == 2
        assert "cannot analyze" in capsys.readouterr().err


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Flight records of a clean and a stragglers ``dist`` run on
    archaea, written by ``repro run --record``."""
    out = {}
    for preset in ("none", "stragglers"):
        path = str(tmp_path_factory.mktemp("fr") / f"{preset}.jsonl")
        faults = [] if preset == "none" else ["--faults", preset,
                                              "--interval", "0"]
        assert main(["run", "archaea", "--driver", "dist", "--machine",
                     "edison", "--nodes", "16", *faults,
                     "--record", path]) == 0
        out[preset] = path
    return out


def _cut_before_run_end(path, tmp_path):
    """A copy of the record at *path* without its lines from ``run_end``
    on: the record of a run killed before it closed."""
    lines = open(path).read().splitlines(keepends=True)
    end = next(i for i, line in enumerate(lines)
               if '"kind": "run_end"' in line)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[:end]))
    return cut


class TestExplain:
    def test_clean_run_text_verdict(self, records, capsys):
        assert main(["explain", records["none"]]) == 0
        out = capsys.readouterr().out
        assert "no anomalies detected" in out
        assert "completed" in out

    def test_expect_clean_passes_on_clean_run(self, records):
        assert main(["explain", records["none"], "--expect-clean"]) == 0

    def test_stragglers_run_names_rank_and_storm(self, records, capsys):
        assert main(["explain", records["stragglers"]]) == 0
        out = capsys.readouterr().out
        assert "straggler" in out and "retry storm" in out
        assert "rank" in out
        # the record carries the analytics, so the replay correlates
        assert "↳ fault delays/retries cost" in out

    def test_expect_gate_fails_when_class_missing(self, records, capsys):
        assert main(["explain", records["none"], "--expect", "retry_storm"]) == 1
        err = capsys.readouterr().err
        assert "not detected" in err and "retry_storm" in err

    def test_expect_gate_passes_under_preset(self, records):
        assert main(["explain", records["stragglers"],
                     "--expect", "retry_storm,straggler"]) == 0

    def test_expect_clean_fails_under_preset(self, records, capsys):
        assert main(["explain", records["stragglers"], "--expect-clean"]) == 1
        assert "expected a clean run" in capsys.readouterr().err

    def test_artifacts_and_replay(self, records, tmp_path, capsys):
        rep = str(tmp_path / "fr.json")
        html = str(tmp_path / "fr.html")
        assert main(["explain", records["stragglers"],
                     "--report", rep, "--html", html]) == 0
        capsys.readouterr()
        report = json.loads(open(rep).read())
        assert not report["healthy"]
        assert set(report["anomaly_classes"]) >= {"retry_storm", "straggler"}
        page = open(html).read()
        assert "<svg" in page and "straggler" in page

        # replay the JSONL record again and get the same verdict
        assert main(["explain", records["stragglers"], "--json"]) == 0
        replayed = json.loads(capsys.readouterr().out)
        assert replayed["anomaly_classes"] == report["anomaly_classes"]
        assert replayed["run_id"] == report["run_id"]

    def test_replay_unreadable_record_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["explain", str(bad)]) == 2
        assert "cannot read flight record" in capsys.readouterr().err

    def test_empty_record_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["explain", str(empty)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot read flight record" in err

    def test_file_without_run_meta_header_exits_2(self, tmp_path, capsys):
        headless = tmp_path / "headless.jsonl"
        headless.write_text('{"seq": 0, "ts": 0, "kind": "x"}\n')
        assert main(["explain", str(headless), "--expect-clean"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "not a flight record" in err

    def test_cut_record_keeps_its_verdicts_and_fails_clean_gate(
            self, records, tmp_path, capsys):
        """The stragglers record cut before ``run_end``: the verdicts are
        drawn from the events it holds, and the run did not complete."""
        cut = _cut_before_run_end(records["stragglers"], tmp_path)
        assert main(["explain", str(cut),
                     "--expect", "retry_storm,straggler"]) == 0
        assert "DID NOT COMPLETE" in capsys.readouterr().out
        assert main(["explain", str(cut), "--expect-clean"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "did not complete" in err and "straggler" in err

    def test_expect_clean_fails_on_incomplete_run(self, records, tmp_path,
                                                  capsys):
        """No anomaly, but no completed run either: cut before run_end,
        or ended by run_end's error."""
        from repro.obs.flight import FlightRecorder

        cut = _cut_before_run_end(records["none"], tmp_path)
        failed = tmp_path / "failed.jsonl"
        fr = FlightRecorder(path=str(failed))
        fr.record("run_start", driver="dist", graph="g")
        fr.record("run_end", error="alltoallv failed permanently")
        fr.close()
        for path, why in ((cut, "ends before run_end"),
                          (failed, "alltoallv failed permanently")):
            assert main(["explain", str(path), "--expect-clean"]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "did not complete" in err and why in err
            assert "detected" not in err

    def test_unknown_preset_rejected(self):
        # explain only replays: it takes no fault options at all
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["explain", "fr.jsonl", "--faults", "stragglers"]
            )

    def test_failed_loudly_replays_as_did_not_complete(self, tmp_path, capsys):
        path = str(tmp_path / "perm.jsonl")
        assert main(["run", "archaea", "--driver", "dist", "--faults",
                     "permanent", "--max-recoveries", "0",
                     "--record", path]) == 0
        capsys.readouterr()
        assert main(["explain", path]) == 0
        assert "DID NOT COMPLETE" in capsys.readouterr().out

        # with a budget, the same preset degrades to a serial replay: the
        # header names the driver the run was started with
        path = str(tmp_path / "degraded.jsonl")
        assert main(["run", "archaea", "--driver", "spmd", "--faults",
                     "permanent", "--backend", "sim", "--record", path]) == 1
        capsys.readouterr()
        assert main(["explain", path]) == 0
        out = capsys.readouterr().out
        assert "[spmd, degraded to serial]" in out and "completed" in out


@pytest.fixture()
def ledger(tmp_path):
    """The committed e2e record and the BENCHMARK.json next to it, copied
    into *tmp_path* so a test can plant changes in a current record."""
    for name in ("BENCH_e2e.json", "BENCHMARK.json"):
        shutil.copy(ROOT / name, tmp_path / name)
    return tmp_path


def _regress(ledger, edit=None):
    """``repro regress`` of an edited copy of the committed record."""
    rec = json.loads((ledger / "BENCH_e2e.json").read_text())
    if edit is not None:
        edit(rec)
    cur = ledger / "current.json"
    cur.write_text(json.dumps(rec))
    return main(["regress", "--current", str(cur),
                 "--baseline", str(ledger / "BENCH_e2e.json")])


class TestRegress:
    def test_committed_record_covers_every_workload(self):
        rec = json.loads((ROOT / "BENCH_e2e.json").read_text())
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert rec["seed"] == 1 and not rec["smoke"]
        assert set(rec["workloads"]) == {w["name"] for w in spec["workloads"]}
        for run in rec["workloads"].values():
            assert run["failed"] == 0 and run["attempted"] > 0
            assert "core.iterations" in run["layers"]

    def test_identical_records_pass(self, ledger, capsys):
        assert _regress(ledger) == 0
        assert "all match" in capsys.readouterr().out

    @pytest.mark.parametrize("workload, metric, delta", [
        ("protein-dist64", "mpisim.model_words", 0.5),
        ("metagenome-serial", "core.iterations", 1),
        ("rmat-serial", "kernels.spmv_bytes", 8),
        ("protein-dist64", "mpisim.model_s", 1e-12),
        ("protein-proc2", "parallel.payload_bytes", -1),
    ])
    def test_moved_counter_fails_and_is_named(self, ledger, capsys,
                                              workload, metric, delta):
        def edit(rec):
            rec["workloads"][workload]["layers"][metric] += delta

        assert _regress(ledger, edit) == 1
        assert f"{workload} {metric}: " in capsys.readouterr().out

    @pytest.mark.parametrize("part, metric", [
        ("layers", "graphblas.mxv_share"),
        ("layers", "parallel.worker_wait_share"),
        ("layers", "baselines.fastsv_s"),
        ("metrics", "wall_s"),
        ("metrics", "peak_rss_mb"),
    ])
    def test_timing_metrics_are_not_gated(self, ledger, part, metric):
        def edit(rec):
            for run in rec["workloads"].values():
                run[part][metric] = 2 * run[part][metric] + 1

        assert _regress(ledger, edit) == 0

    @pytest.mark.parametrize("field, value", [("failed", 1), ("attempted", 0)])
    def test_failed_or_empty_workload_fails(self, ledger, capsys, field,
                                            value):
        def edit(rec):
            rec["workloads"]["rmat-serial"][field] = value

        assert _regress(ledger, edit) == 1
        assert "rmat-serial: " in capsys.readouterr().out

    def test_dropped_workload_fails(self, ledger, capsys):
        def edit(rec):
            del rec["workloads"]["protein-proc2"]

        assert _regress(ledger, edit) == 1
        out = capsys.readouterr().out
        assert "protein-proc2: missing from the current record" in out

    def test_dropped_counter_fails(self, ledger, capsys):
        def edit(rec):
            del rec["workloads"]["protein-dist64"]["layers"]["core.iterations"]

        assert _regress(ledger, edit) == 1
        assert ("protein-dist64 core.iterations: missing from the current "
                "record") in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [("seed", 2), ("smoke", True)])
    def test_incomparable_records_exit_2(self, ledger, capsys, key, value):
        def edit(rec):
            rec[key] = value

        assert _regress(ledger, edit) == 2
        assert "not comparable" in capsys.readouterr().err

    def test_missing_file_exits_2(self, ledger, capsys):
        assert main(["regress", "--current", str(ledger / "nope.json"),
                     "--baseline", str(ledger / "BENCH_e2e.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_current_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["regress"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "g.mtx", "--driver", "magic"])

    def test_driver_choices_are_the_drivers_and_the_baselines(self):
        import repro
        from repro.core.drivers import DRIVERS

        run = build_parser()._subparsers._group_actions[0].choices["run"]
        driver = next(a for a in run._actions if a.dest == "driver")
        assert driver.choices == [*DRIVERS, *repro.BASELINES]

    @pytest.mark.parametrize("verb", ["cc", "simulate", "profile", "analyze",
                                      "chaos"])
    def test_retired_verbs_are_invalid_choices(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, "archaea"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestRunRejects:
    """Outside input a run cannot use exits 2 with one line, before any
    graph is loaded."""

    @pytest.mark.parametrize("argv, message", [
        (["--driver", "dist", "--nodes", "1,x"], "--nodes takes positive"),
        (["--driver", "dist", "--nodes", "0"], "--nodes takes positive"),
        (["--driver", "spmd", "--ranks", "0"], "does not run at 0 ranks"),
        (["--driver", "2d", "--ranks", "3"], "does not run at 3 ranks"),
        (["--ranks", "8"], "--driver serial takes no --ranks"),
        (["--driver", "dist", "--ranks", "8"], "--driver dist takes no --ranks"),
        (["--driver", "bfs", "--ranks", "8"], "--driver bfs takes no --ranks"),
        (["--machine", "cori"], "--driver serial takes no --machine"),
        (["--driver", "spmd", "--nodes", "4"], "--driver spmd takes no --nodes"),
        (["--driver", "2d", "--parconnect"], "--driver 2d takes no --parconnect"),
        (["--driver", "bfs", "--faults", "crash"], "--driver bfs takes no --faults"),
        (["--driver", "bfs", "--analyze"], "--driver bfs takes no --analyze"),
        (["--driver", "bfs", "--record", "x.jsonl"],
         "--driver bfs takes no --record"),
        (["--after", "3"], "a run without --faults takes no --after"),
        (["--seed", "3"], "a run without --faults takes no --seed"),
        (["--faults", "flaky", "--phase", "starcheck"],
         "preset 'flaky' takes no --phase"),
        (["--driver", "dist", "--nodes", "1,4", "--record", "x.jsonl"],
         "--record takes one run"),
    ])
    def test_rejected_before_loading(self, argv, message, capsys):
        assert _run("no-such-graph.mtx", *argv) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["no-such-graph.mtx"], "cannot read the graph"),
        (["archaea", "--driver", "dist", "--machine", "no-such-machine"],
         "unknown machine"),
    ])
    def test_unreadable_input_exits_2(self, argv, message, capsys):
        assert _run(*argv) == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    def test_victim_outside_the_world_exits_2(self, mtx, capsys):
        assert _run(mtx, "--driver", "spmd", "--faults", "kill", "--rank",
                    "7", "--backend", "sim") == 2
        err = capsys.readouterr().err
        assert "victim rank 7" in err and err.count("\n") == 1


#: each observer flag and what shows that it worked: the file it writes,
#: or a line of its text output
OBSERVERS = {
    "--trace": "trace.json", "--record": "fr.jsonl", "--out": "labels.txt",
    "--top": "levels deep", "--flame": "#", "--analyze": "per-rank analytics",
    "--stats": "largest component", "--json": '"runs"',
}
#: keys of the per-run JSON record that tests and CI read
RUN_KEYS = {"components", "iterations", "largest_component",
            "simulated_seconds", "wall_seconds", "iteration_stats", "ok",
            "oracle_ok", "injected", "attempts", "recoveries",
            "recovery_events", "resumed", "error", "reference_seconds",
            "analytics"}


@pytest.mark.parametrize("faults", [[], ["--faults", "crash", "--after", "20"]],
                         ids=["clean", "crash"])
@pytest.mark.parametrize("flag", sorted(OBSERVERS))
@pytest.mark.parametrize("driver", ["serial", "dist", "spmd", "2d"])
def test_every_observer_on_every_driver(driver, flag, faults, mtx, tmp_path,
                                        capsys):
    """Each observer flag works on every driver on sim, clean and under
    faults (a crash after the first checkpoint, which every driver but
    serial resumes from), alone and beside ``--json``.  ``--analyze``
    needs a cost model off proc, which only ``dist`` charges."""
    shows = OBSERVERS[flag]
    args = [flag, str(tmp_path / shows)] if "." in shows else [flag]
    for extra in ([], ["--json"]):
        code = _run(mtx, "--driver", driver, "--backend", "sim", *faults,
                    *args, *extra)
        out, err = capsys.readouterr()
        if flag == "--analyze" and driver != "dist":
            assert code == 2 and "cannot analyze" in err
            return
        assert code == 0, err
        if "." in shows:
            assert (tmp_path / shows).stat().st_size > 0
            (tmp_path / shows).unlink()
        elif not extra:
            assert shows in out
    rec = json.loads(out)
    assert (rec["graph"], rec["driver"], rec["backend"]) == ("g", driver, "sim")
    run, = rec["runs"]
    assert RUN_KEYS <= set(run)
    assert run["components"] == 3 and run["ok"]
    assert run["preset"] == ("crash" if faults else None)
    crashed = bool(faults) and driver != "serial"  # serial has no collectives
    assert run["injected"] == ({"crash": 1} if crashed else {})
    assert (run["analytics"] is not None) is (flag == "--analyze")


@pytest.mark.parametrize("driver", ["serial", "dist", "spmd", "2d"])
def test_archaea_answer_on_every_driver(driver, capsys):
    run, = _record(capsys, "archaea", "--driver", driver, "--backend",
                   "sim")["runs"]
    assert (run["components"], run["iterations"]) == (3001, 5)


def test_plain_dist_run_charges_no_checkpoints(capsys):
    """Without --faults the driver runs unsupervised: the model time is
    the run's alone, with no checkpoint charges."""
    assert _run("archaea", "--driver", "dist", "--nodes", "4") == 0
    assert "2.437 ms simulated" in capsys.readouterr().out
