"""Scenario resolution, the three runners, and report emission."""

import json
import os
import re

import pytest

from gstsim import flow, scenario
from gstsim.scenario import (
    REPORT_COLUMNS,
    ScenarioConfig,
    compare_scenario,
    emit_report,
    load_scenario,
    optimize_scenario,
    resolve,
    run_scenario,
)


def tree_cfg(**kw):
    base = dict(topology={"kind": "tree", "height": 2})
    base.update(kw)
    return ScenarioConfig.from_dict(base)


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            ScenarioConfig.from_dict({"topology": {"kind": "line", "n": 2},
                                      "rooot": "center"})

    def test_topology_required(self):
        with pytest.raises(ValueError, match="topology"):
            ScenarioConfig.from_dict({"targets": "all"})

    @pytest.mark.parametrize("data", [[["topology", {"kind": "line", "n": 3}]], "abc"])
    def test_data_must_be_an_object(self, data):
        with pytest.raises(ValueError, match="scenario file must hold a JSON object"):
            ScenarioConfig.from_dict(data)

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "scn.json"
        p.write_text(json.dumps({"topology": {"kind": "line", "n": 3},
                                 "seed": 4}))
        cfg = load_scenario(str(p))
        assert cfg.seed == 4

    def test_document_wins_over_defaults(self, tmp_path):
        p = tmp_path / "scn.json"
        p.write_text(json.dumps({"topology": {"kind": "line", "n": 3}, "seed": 4}))
        cfg = load_scenario(str(p), {"topology": {"kind": "tree", "height": 2},
                                     "seed": 9, "strategy": "flow"})
        assert (cfg.topology, cfg.seed, cfg.strategy) == ({"kind": "line", "n": 3}, 4, "flow")
        assert ScenarioConfig.from_dict({"seed": 4}, {"topology": "t.json"}).topology == "t.json"

    @pytest.mark.parametrize("output, message", [
        ("x", "scenario output must be an object, not 'x'"),
        (None, "scenario output must be an object, not None"),
        (["path", "rep.csv"], "scenario output must be an object"),
        ({"path": 1}, "scenario output path must be a string, not 1"),
        ({"path": True}, "scenario output path must be a string, not True"),
        ({"path": None}, "scenario output path must be a string, not None"),
        ({"format": 0}, "scenario output format must be a string, not 0"),
        ({"format": False}, "scenario output format must be a string, not False"),
        ({"format": ["csv"]}, "scenario output format must be a string"),
        ({"format": "xml"}, "unknown report format 'xml'"),
    ])
    def test_output_is_checked_by_the_library(self, tmp_path, output, message):
        """from_dict and load_scenario reject every output the CLI rejects,
        with the same messages."""
        data = {"topology": {"kind": "line", "n": 3}, "output": output}
        with pytest.raises(ValueError, match=re.escape(message)):
            ScenarioConfig.from_dict(data)
        p = tmp_path / "scn.json"
        p.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=re.escape(message)):
            load_scenario(str(p))


class TestResolve:
    def test_all_targets(self):
        scn = resolve(tree_cfg())
        assert scn.targets == sorted(scn.topology.nodes)

    def test_random_targets_are_seeded(self):
        a = resolve(tree_cfg(targets={"random": 3}, seed=9)).targets
        b = resolve(tree_cfg(targets={"random": 3}, seed=9)).targets
        assert a == b and len(a) == 3

    def test_explicit_targets_validated(self):
        with pytest.raises(ValueError):
            resolve(tree_cfg(targets=["n00", "zz"]))

    def test_topology_from_file(self, tmp_path):
        p = tmp_path / "topo.json"
        p.write_text(json.dumps({"nodes": ["a", "b"], "links": [["a", "b"]]}))
        scn = resolve(ScenarioConfig.from_dict({"topology": str(p)}))
        assert scn.topology.nodes == ("a", "b")

    @pytest.mark.parametrize("shape,count", [
        ("complete", 3), ("path", 2), ("cycle", 3), ("empty", 0),
    ])
    def test_named_edge_shapes(self, shape, count):
        scn = resolve(tree_cfg(targets=["n00", "n01", "n02"],
                               target_edges=shape))
        assert len(scn.target_graph.edges) == count

    def test_explicit_edge_list(self):
        scn = resolve(tree_cfg(targets=["n00", "n01", "n02"],
                               target_edges=[["n00", "n02"]]))
        assert scn.target_graph.edges == frozenset({("n00", "n02")})

    def test_gnp_edges_seeded(self):
        a = resolve(tree_cfg(target_edges={"gnp": 0.5}, seed=3))
        b = resolve(tree_cfg(target_edges={"gnp": 0.5}, seed=3))
        assert a.target_graph.edges == b.target_graph.edges


class TestRunners:
    def test_run_emits_gst_then_edcg(self):
        rows = run_scenario(tree_cfg())
        assert [r["algorithm"] for r in rows] == ["gst", "edcg"]
        gst, edcg = rows
        assert gst["epr_pairs"] == 10          # 2^{h+1}(h-1)+2 at h=2
        assert gst["timesteps"] == 3
        assert edcg["epr_pairs"] == 21         # n(n-1)/2 at n=7
        assert edcg["timesteps"] == 6
        assert edcg["epr_bound"] is None
        assert gst["classical_bits"] == 2 * 10 + 2 * 7

    def test_rows_have_all_columns(self):
        for row in run_scenario(tree_cfg()):
            assert set(REPORT_COLUMNS) <= set(row)

    def test_fixed_root(self):
        rows = run_scenario(tree_cfg(root="fixed:n03"))
        assert rows[0]["root"] == "n03"

    def test_compare_roots_gst_at_the_cascade_anchor(self):
        rows = compare_scenario(tree_cfg())
        gst, edcg = rows
        assert gst["root"] == edcg["root"]
        assert gst["epr_pairs"] <= edcg["epr_pairs"]

    def test_optimize_returns_info_and_two_rows(self):
        info, rows = optimize_scenario(tree_cfg())
        assert {"root", "k", "rounds"} <= set(info)
        assert [r["strategy"] for r in rows] == ["flow", "shortest"]
        assert rows[0]["root"] == rows[1]["root"] == info["root"]

    @pytest.mark.parametrize("topology, root, targets, edges, csv_row", [
        ({"kind": "tree", "height": 4}, "fixed:n01", "all", "path",
         "gst,31,31,99,465,16,260,0,n01,flow,0"),
        ({"kind": "tree", "height": 4}, "center", "all", "path",
         "gst,31,31,98,465,15,258,0,n00,flow,0"),
        ({"kind": "tree", "height": 4}, "fixed:n07", "all", "path",
         "gst,31,31,141,465,28,344,0,n07,flow,0"),
        ({"kind": "grid", "rows": 4, "cols": 5}, "center",
         ["r00c00", "r01c03", "r03c04", "r02c02", "r03c00"], "complete",
         "gst,20,5,13,85,2,36,0,r01c02,flow,0"),
    ], ids=["tree4-n01", "tree4-center", "tree4-n07", "grid4x5-center"])
    def test_flow_strategy_solves_each_probe_once(self, monkeypatch, topology, root,
                                                  targets, edges, csv_row):
        """The plan is decomposed from the flow of the saturating probe, not
        solved again at the same (root, k); the rows are unchanged."""
        probes = []
        real = flow.max_flow
        recording = lambda inst: probes.append((inst.root, inst.k)) or real(inst)
        monkeypatch.setattr(flow, "max_flow", recording)
        monkeypatch.setattr(scenario, "max_flow", recording, raising=False)
        rows = run_scenario(ScenarioConfig.from_dict(dict(
            topology=topology, root=root, targets=targets, target_edges=edges,
            strategy="flow")))
        assert probes and len(probes) == len(set(probes))
        assert emit_report(rows).splitlines()[1] == csv_row

    def test_identical_seeds_identical_rows(self):
        cfg = dict(topology={"kind": "gnp", "n": 8, "p": 0.4, "seed": 11},
                   targets={"random": 4}, target_edges={"gnp": 0.6}, seed=11)
        a = run_scenario(ScenarioConfig.from_dict(dict(cfg)))
        b = run_scenario(ScenarioConfig.from_dict(dict(cfg)))
        assert a == b


class TestEmit:
    def test_csv_layout_and_none_blanks(self):
        rows = run_scenario(tree_cfg())
        text = emit_report(rows, fmt="csv")
        lines = text.splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 3
        edcg_cells = lines[2].split(",")
        assert edcg_cells[REPORT_COLUMNS.index("epr_bound")] == ""

    def test_byte_identical_across_runs(self):
        cfg = dict(topology={"kind": "gnp", "n": 7, "p": 0.45, "seed": 2},
                   seed=2)
        a = emit_report(run_scenario(ScenarioConfig.from_dict(dict(cfg))))
        b = emit_report(run_scenario(ScenarioConfig.from_dict(dict(cfg))))
        assert a.encode() == b.encode()

    def test_json_round_trips(self):
        rows = run_scenario(tree_cfg())
        parsed = json.loads(emit_report(rows, fmt="json"))
        assert parsed[0]["algorithm"] == "gst"
        assert parsed[1]["epr_bound"] is None

    def test_writes_file(self, tmp_path):
        rows = run_scenario(tree_cfg())
        out = tmp_path / "report.csv"
        text = emit_report(rows, fmt="csv", path=str(out))
        assert out.read_text() == text

    @pytest.mark.parametrize("path", [1.5, b"report.csv", ["report.csv"]])
    def test_rejects_a_path_that_is_not_a_string(self, path):
        with pytest.raises(ValueError, match="report path must be a string"):
            emit_report(run_scenario(tree_cfg()), path=path)

    def test_never_writes_into_a_file_descriptor(self):
        rows = run_scenario(tree_cfg())
        r, w = os.pipe()
        try:
            with pytest.raises(ValueError, match=f"report path must be a string, not {w}"):
                emit_report(rows, "csv", w)
            os.set_blocking(r, False)
            with pytest.raises(BlockingIOError):  # open, and nothing written
                os.read(r, 1)
            os.fstat(w)  # still open
        finally:
            os.close(r)
            os.close(w)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(run_scenario(tree_cfg()), fmt="xml")

    def test_rejects_short_rows(self):
        with pytest.raises(ValueError, match="missing columns"):
            emit_report([{"algorithm": "gst"}])
