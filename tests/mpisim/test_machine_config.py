"""Tests for machine-model configuration loading (presets + JSON)."""

import json

import pytest

from repro.mpisim.machine import CORI_KNL, EDISON, LAPTOP, from_dict, load_machine

VALID = {
    "name": "TestBox",
    "cores_per_node": 16,
    "clock_ghz": 2.0,
    "dp_gflops_per_core": 10.0,
    "stream_bw_node": 50e9,
    "mem_per_node": 32e9,
    "net_alpha": 1e-6,
    "net_bw_node": 12e9,
}


class TestFromDict:
    def test_valid(self):
        m = from_dict(dict(VALID))
        assert m.name == "TestBox" and m.cores_per_node == 16
        assert m.threads_per_process == 1  # default

    def test_optional_fields(self):
        m = from_dict({**VALID, "threads_per_process": 4, "irregular_access_penalty": 2.0})
        assert m.processes_per_node == 4
        assert m.irregular_access_penalty == 2.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            from_dict({**VALID, "turbo": True})

    def test_missing_key_rejected(self):
        cfg = dict(VALID)
        del cfg["net_alpha"]
        with pytest.raises(ValueError, match="missing"):
            from_dict(cfg)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            from_dict({**VALID, "stream_bw_node": 0})
        with pytest.raises(ValueError):
            from_dict({**VALID, "net_alpha": -1e-6})


class TestLoadMachine:
    def test_presets(self):
        assert load_machine("edison") is EDISON
        assert load_machine("CORI") is CORI_KNL
        assert load_machine("cori-knl") is CORI_KNL
        assert load_machine("laptop") is LAPTOP

    def test_json_file(self, tmp_path):
        p = tmp_path / "machine.json"
        p.write_text(json.dumps(VALID))
        m = load_machine(str(p))
        assert m.name == "TestBox"

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown machine"):
            load_machine("frontier")

    def test_end_to_end_simulation_with_custom_machine(self, tmp_path):
        from repro.core.lacc_dist import lacc_dist
        from repro.graphs import generators as gen

        p = tmp_path / "m.json"
        p.write_text(json.dumps({**VALID, "threads_per_process": 4}))
        m = load_machine(str(p))
        g = gen.component_mixture([10, 5], seed=1)
        r = lacc_dist(g.to_matrix(), m, nodes=4)
        assert r.n_components == 2
        assert r.ranks == 16  # 4 nodes * 4 procs

    def test_cli_with_machine_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graphs import generators as gen
        from repro.graphs import io as gio

        mf = tmp_path / "m.json"
        mf.write_text(json.dumps(VALID))
        gf = tmp_path / "g.mtx"
        gio.write_matrix_market(gf, gen.path_graph(12))
        assert main(["run", str(gf), "--driver", "dist", "--machine", str(mf),
                     "--nodes", "1"]) == 0
        assert "TestBox" in capsys.readouterr().out
