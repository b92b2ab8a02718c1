"""Scenario resolution, the three runners, and report emission."""

import json
import os
import random
import re

import pytest

from gstsim import flow, network, scenario
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
        ({"fromat": "json"}, "unknown scenario output keys: ['fromat']"),
        ({"path": "r.csv", "mode": "a", "fmt": 1}, "unknown scenario output keys: ['fmt', 'mode']"),
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

    @pytest.mark.parametrize("targets, message", [
        ([["n00"]], "targets: node id ['n00'] is not a string"),
        (["n00", 1], "targets: node id 1 is not a string"),
    ])
    def test_target_ids_must_be_strings(self, targets, message):
        with pytest.raises(ValueError) as info:
            resolve(tree_cfg(targets=targets))
        assert str(info.value) == message

    @pytest.mark.parametrize("edges, message", [
        ([["n00", "n01", "n02"]],
         "target_edges: ['n00', 'n01', 'n02'] is not a pair of node-id strings"),
        ([["n00"]], "target_edges: ['n00'] is not a pair of node-id strings"),
        ([5], "target_edges: 5 is not a pair of node-id strings"),
        ([["n00", 1]], "target_edges: ['n00', 1] is not a pair of node-id strings"),
    ])
    def test_target_edges_must_be_pairs_of_ids(self, edges, message):
        with pytest.raises(ValueError) as info:
            resolve(tree_cfg(targets=["n00", "n01", "n02"], target_edges=edges))
        assert str(info.value) == message

    @pytest.mark.parametrize("spec", [{"n": 3}, {}])
    def test_topology_spec_without_a_kind(self, spec):
        with pytest.raises(ValueError) as info:
            resolve(ScenarioConfig.from_dict({"topology": spec}))
        assert str(info.value) == ("topology spec needs a 'kind' entry, "
                                   "one of ['line', 'tree', 'grid', 'gnp']")

    @pytest.mark.parametrize("policy, root", [
        ("fixed:n03", "n03"), ("center", None), ("optimize", None),
    ])
    def test_root_policy_is_parsed_once(self, policy, root):
        scn = resolve(tree_cfg(root=policy))
        assert scn.root == root
        assert scn.request.assignment == {t: t for t in scn.targets}
        assert scn.request.target.vertices == frozenset(scn.targets)

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
        assert len(scn.request.target.edges) == count

    def test_explicit_edge_list(self):
        scn = resolve(tree_cfg(targets=["n00", "n01", "n02"],
                               target_edges=[["n00", "n02"]]))
        assert scn.request.target.edges == frozenset({("n00", "n02")})

    @pytest.mark.parametrize("edges, message", [
        ([["n00", "n01"], ["n01", "n00"]], "repeated target edge ('n01', 'n00')"),
        ([["n00", "n02"], ["n01", "n02"], ["n00", "n02"]],
         "repeated target edge ('n00', 'n02')"),
    ])
    def test_repeated_target_edge_rejected(self, edges, message):
        """Two CZs on one pair cancel, so a repeated pair, in either
        orientation, leaves the intended graph unclear."""
        with pytest.raises(ValueError) as info:
            resolve(tree_cfg(targets=["n00", "n01", "n02"], target_edges=edges))
        assert str(info.value) == message

    def test_gnp_edges_seeded(self):
        a = resolve(tree_cfg(target_edges={"gnp": 0.5}, seed=3))
        b = resolve(tree_cfg(target_edges={"gnp": 0.5}, seed=3))
        assert a.request.target.edges == b.request.target.edges

    def test_generated_edges_draw_in_pair_order(self):
        """A complete target has every pair, and a G(n, p) target keeps pair
        i of the sorted pairs iff the i-th draw is below p, leaving the rng
        where those draws leave it."""
        ts = [f"n{i:02d}" for i in range(9)]
        pairs = [(u, v) for i, u in enumerate(ts) for v in ts[i + 1:]]
        complete = scenario._resolve_target_graph("complete", ts[::-1], random.Random(0))
        assert complete.edges == frozenset(pairs)
        rng, want_rng = random.Random(4), random.Random(4)
        want = [e for e in pairs if want_rng.random() < 0.3]
        got = scenario._resolve_target_graph({"gnp": 0.3}, ts, rng)
        assert got.edges == frozenset(want) and 0 < len(want) < len(pairs)
        assert rng.getstate() == want_rng.getstate()

    @pytest.mark.parametrize("edges, what", [("complete", "target edges"),
                                             ({"gnp": 0.5}, "target edge draws")])
    def test_generated_edges_over_the_size_limit(self, monkeypatch, edges, what):
        """Complete and G(n, p) targets count their |S|(|S| - 1)/2 pairs
        against the size limit before they draw one; paths need no count."""
        monkeypatch.setattr(network, "SIZE_LIMIT", 20)
        assert len(resolve(tree_cfg(targets={"random": 6}, target_edges=edges)).targets) == 6
        with pytest.raises(ValueError, match=f"^21 {what} exceed the size limit of 20$"):
            resolve(tree_cfg(targets="all", target_edges=edges))
        assert resolve(tree_cfg(targets="all", target_edges="path")).request.target.edges


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

    @pytest.mark.parametrize("topology, walks", [
        ({"kind": "tree", "height": 4}, 1),
        ({"kind": "line", "n": 40}, 1),
        ({"kind": "line", "n": 200}, 1),
        ({"kind": "grid", "rows": 6, "cols": 6}, 2),
        ({"kind": "gnp", "n": 50, "p": 0.08}, 2),
    ], ids=["tree4", "line40", "line200", "grid6", "gnp50"])
    def test_optimize_walks_each_distinct_plan_once(self, monkeypatch, topology, walks):
        """On a tree the flow plan is the shortest plan, so the shortest leg
        reuses the flow leg's report; elsewhere the plans differ and each
        is walked.  Every walk executes the scenario's one request."""
        calls = []
        real = scenario.execute
        monkeypatch.setattr(scenario, "execute",
                            lambda state, request, plan, schedule:
                            calls.append(request) or real(state, request, plan, schedule))
        info, (flow_row, short_row) = optimize_scenario(ScenarioConfig.from_dict(dict(
            topology=topology, target_edges="path")))
        assert len(calls) == walks
        assert all(request is calls[0] for request in calls)
        if walks == 1:
            assert {**flow_row, "strategy": "shortest"} == short_row
        else:
            assert (flow_row["epr_pairs"], flow_row["timesteps"]) != (
                short_row["epr_pairs"], short_row["timesteps"])

    def test_run_with_optimized_root_walks_once(self, monkeypatch):
        calls = []
        real = scenario.execute
        monkeypatch.setattr(scenario, "execute",
                            lambda *args: calls.append(args) or real(*args))
        rows = run_scenario(tree_cfg(root="optimize", target_edges="path"))
        assert len(calls) == 1 and rows[0]["strategy"] == "flow"

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
        solved again at the same (root, k); on a tree no flow is solved at
        all, the plan being the tree's paths.  The rows are unchanged."""
        probes = []
        real = flow.max_flow
        recording = lambda inst: probes.append((inst.root, inst.k)) or real(inst)
        monkeypatch.setattr(flow, "max_flow", recording)
        monkeypatch.setattr(scenario, "max_flow", recording, raising=False)
        rows = run_scenario(ScenarioConfig.from_dict(dict(
            topology=topology, root=root, targets=targets, target_edges=edges,
            strategy="flow")))
        if topology["kind"] == "tree":
            assert probes == []
        else:
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
