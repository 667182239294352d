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


class TestCC:
    def test_basic(self, mtx, capsys):
        assert main(["cc", mtx]) == 0
        out = capsys.readouterr().out
        assert "components: 3" in out

    def test_all_methods(self, mtx, capsys):
        for method in ("lacc", "union-find", "sv", "bfs", "label-prop", "fastsv"):
            assert main(["cc", mtx, "--method", method]) == 0
            assert "components: 3" in capsys.readouterr().out

    def test_stats(self, mtx, capsys):
        assert main(["cc", mtx, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "iterations:" in out and "iter 1:" in out

    def test_labels_out(self, mtx, tmp_path, capsys):
        out_file = tmp_path / "labels.txt"
        assert main(["cc", mtx, "--out", str(out_file)]) == 0
        labels = np.loadtxt(out_file, dtype=np.int64)
        assert labels.size == 16
        assert np.unique(labels).size == 3

    def test_corpus_name_as_graph(self, capsys):
        assert main(["cc", "queen_4147", "--method", "union-find"]) == 0
        assert "components: 1" in capsys.readouterr().out

    def test_edge_list_input(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n2 3\n")
        assert main(["cc", str(p)]) == 0
        assert "components: 2" in capsys.readouterr().out

    def test_stats_works_for_every_method(self, mtx, capsys):
        for method in ("lacc", "union-find", "sv", "bfs", "label-prop", "fastsv"):
            assert main(["cc", mtx, "--method", method, "--stats"]) == 0
            out = capsys.readouterr().out
            assert "largest component: 8" in out, method
            assert "singletons: 0" in out, method

    def test_json_output(self, mtx, capsys):
        assert main(["cc", mtx, "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["components"] == 3
        assert d["method"] == "lacc"
        assert d["largest_component"] == 8
        assert len(d["iteration_stats"]) == d["iterations"]

    def test_json_output_baseline_method(self, mtx, capsys):
        assert main(["cc", mtx, "--method", "bfs", "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["components"] == 3
        assert "iteration_stats" not in d

    def test_trace_output(self, mtx, tmp_path, capsys):
        f = tmp_path / "trace.json"
        assert main(["cc", mtx, "--trace", str(f)]) == 0
        doc = json.load(open(f))
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"lacc", "iteration", "cond_hook", "mxv"} <= names

    def test_trace_output_baseline_method(self, mtx, tmp_path):
        f = tmp_path / "trace.json"
        assert main(["cc", mtx, "--method", "union-find", "--trace", str(f)]) == 0
        doc = json.load(open(f))
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "B"}
        assert "union-find" in names


class TestSimulate:
    def test_basic(self, mtx, capsys):
        assert main(["simulate", mtx, "--nodes", "1,4"]) == 0
        out = capsys.readouterr().out
        assert "LACC (ms)" in out and "simulated Edison" in out

    def test_with_parconnect(self, mtx, capsys):
        assert main(["simulate", mtx, "--nodes", "4", "--parconnect"]) == 0
        out = capsys.readouterr().out
        assert "ParConnect" in out and "x" in out

    def test_cori(self, mtx, capsys):
        assert main(["simulate", mtx, "--machine", "cori", "--nodes", "1"]) == 0
        assert "Cori" in capsys.readouterr().out

    def test_stats_breakdown(self, mtx, capsys):
        assert main(["simulate", mtx, "--nodes", "1,4", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "steps:" in out and "cond_hook=" in out
        assert "iter 1:" in out and "words=" in out

    def test_json_output(self, mtx, capsys):
        assert main(["simulate", mtx, "--nodes", "1,4", "--json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["machine"] == "Edison"
        assert [r["nodes"] for r in d["runs"]] == [1, 4]
        run = d["runs"][0]
        assert run["components"] == 3
        assert run["seconds"] > 0
        assert sum(it["words_communicated"] for it in run["iteration_stats"]) > 0

    def test_trace_merges_node_counts(self, mtx, tmp_path):
        f = tmp_path / "sweep.json"
        assert main(["simulate", mtx, "--nodes", "1,4", "--trace", str(f)]) == 0
        doc = json.load(open(f))
        assert {e["pid"] for e in doc["traceEvents"]} == {1, 4}


class TestProfile:
    def test_serial(self, mtx, capsys):
        assert main(["profile", mtx]) == 0
        out = capsys.readouterr().out
        assert "levels deep" in out and "wall seconds" in out
        assert "mxv" in out  # hotspot table includes primitives

    def test_simulated(self, mtx, capsys):
        assert main(["profile", mtx, "--machine", "edison", "--nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "model seconds" in out and "ranks" in out

    def test_chrome_trace_acceptance(self, mtx, tmp_path, capsys):
        """The headline check: profile --trace emits valid trace_event JSON
        with >= 3 nesting levels and per-primitive counters."""
        f = tmp_path / "out.json"
        assert main(["profile", mtx, "--trace", str(f)]) == 0
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

    def test_jsonl_and_flame(self, mtx, tmp_path, capsys):
        f = tmp_path / "spans.jsonl"
        assert main(["profile", mtx, "--jsonl", str(f), "--flame"]) == 0
        recs = [json.loads(ln) for ln in open(f)]
        assert {r["name"] for r in recs} >= {"lacc", "iteration", "mxv"}
        assert "#" in capsys.readouterr().out  # flamegraph bars


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
    """``repro chaos`` under the collective-fault presets: fail loudly or
    answer right."""

    def test_transient_preset_matches(self, mtx, capsys):
        assert main(["chaos", mtx, "--preset", "flaky", "--seed", "1",
                     "--backend", "sim"]) == 0
        out = capsys.readouterr().out
        assert "chaos 'flaky' on spmd" in out
        assert "PASS  labels match union-find oracle" in out

    def test_permanent_preset_fails_loudly(self, mtx, capsys):
        # failing loudly is the documented contract — exit code stays 0
        assert main(["chaos", mtx, "--preset", "permanent", "--seed", "0",
                     "--max-recoveries", "0", "--backend", "sim"]) == 0
        out = capsys.readouterr().out
        assert "failed loudly" in out and "CollectiveError" in out

    def test_json_record(self, mtx, capsys):
        assert main(["chaos", mtx, "--preset", "outage", "--seed", "2",
                     "--backend", "sim", "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["preset"] == "outage"
        assert rec["injected"]["fail"] > 0
        assert rec["ok"] and rec["oracle_ok"] and rec["error"] is None

    def test_events_listing(self, mtx, tmp_path, capsys):
        # the flight record holds one fault row per injected fault
        path = tmp_path / "flaky.jsonl"
        assert main(["chaos", mtx, "--preset", "flaky", "--seed", "0",
                     "--backend", "sim", "--record", str(path), "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        faults = [r["data"] for r in rows if r["kind"] == "fault"]
        assert len(faults) == sum(rec["injected"].values()) > 0
        for row in faults:
            assert {"collective", "fault_kind", "attempt"} <= set(row)

    def test_machine_mode_reports_priced_retries(self, mtx, tmp_path, capsys):
        trace = tmp_path / "faults.json"
        assert main(
            ["chaos", mtx, "--driver", "dist", "--preset", "outage",
             "--seed", "0", "--machine", "laptop", "--nodes", "1",
             "--trace", str(trace), "--json"]
        ) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["simulated_seconds"] > rec["reference_seconds"]
        events = json.loads(trace.read_text())["traceEvents"]
        assert any(e.get("name") == "retry" for e in events)

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "g.mtx", "--preset", "gremlins"])

    def test_flag_the_preset_does_not_take_exits_2(self, mtx, capsys):
        assert main(["chaos", mtx, "--preset", "flaky", "--after", "3",
                     "--backend", "sim"]) == 2
        assert "takes no --after" in capsys.readouterr().err

    def test_json_mismatch_exits_1(self, mtx, capsys, monkeypatch):
        import repro.graphs.validate as validate

        monkeypatch.setattr(validate, "same_partition", lambda a, b: False)
        assert main(["chaos", mtx, "--driver", "spmd", "--preset", "flaky",
                     "--backend", "sim", "--json"]) == 1
        rec = json.loads(capsys.readouterr().out)
        assert rec["oracle_ok"] is False and rec["ok"] is False


#: ``repro chaos archaea --driver D --preset crash --seed 0 --after 5
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
        code = main(
            ["chaos", "archaea", "--driver", driver, "--preset", "crash",
             "--seed", "0", "--after", "5", "--backend", "sim", "--json"]
        )
        rec = json.loads(capsys.readouterr().out)
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
        assert main(["analyze", mtx, "--nodes", "4", "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert {"steps", "phases", "overall_lambda"} <= set(rec)

    def test_unanalyzable_result_exits_with_message(self, mtx, capsys,
                                                    monkeypatch):
        import repro.obs.analytics as analytics

        def boom(result, edges_per_rank=None):
            raise ValueError("result has no cost model to analyze")

        monkeypatch.setattr(analytics, "analyze", boom)
        assert main(["analyze", mtx, "--nodes", "4"]) == 2
        err = capsys.readouterr().err
        assert "cannot analyze" in err and "no cost model" in err


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Flight records of a clean and a stragglers ``dist`` run on
    archaea, written by ``repro chaos --record``."""
    out = {}
    for preset in ("none", "stragglers"):
        path = str(tmp_path_factory.mktemp("fr") / f"{preset}.jsonl")
        assert main(["chaos", "archaea", "--driver", "dist", "--machine",
                     "edison", "--nodes", "16", "--preset", preset,
                     "--interval", "0", "--record", path]) == 0
        out[preset] = path
    return out


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

    def test_unknown_preset_rejected(self):
        # explain only replays: it takes no fault options at all
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["explain", "fr.jsonl", "--preset", "stragglers"]
            )

    def test_failed_loudly_replays_as_did_not_complete(self, tmp_path, capsys):
        path = str(tmp_path / "perm.jsonl")
        assert main(["chaos", "archaea", "--driver", "dist", "--preset",
                     "permanent", "--max-recoveries", "0",
                     "--record", path]) == 0
        capsys.readouterr()
        assert main(["explain", path]) == 0
        assert "DID NOT COMPLETE" in capsys.readouterr().out

        # with a budget, the same preset degrades to a serial replay: the
        # header names the driver the run was started with
        path = str(tmp_path / "degraded.jsonl")
        assert main(["chaos", "archaea", "--driver", "spmd", "--preset",
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
            build_parser().parse_args(["cc", "g.mtx", "--method", "magic"])
