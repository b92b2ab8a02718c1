"""CLI verbs and exit codes (in-process via main())."""

import json

import pytest

import gstsim.cli as cli
from gstsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, main


def test_gen_topo_writes_loadable_json(tmp_path, capsys):
    out = tmp_path / "topo.json"
    code = main(["gen-topo", "--kind", "tree", "--height", "2",
                 "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text())
    assert len(data["nodes"]) == 7
    assert len(data["links"]) == 6


def test_gen_topo_stdout(capsys):
    assert main(["gen-topo", "--kind", "line", "--n", "3"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["nodes"] == ["n00", "n01", "n02"]


def test_gen_topo_wrong_params_is_config_error(capsys):
    code = main(["gen-topo", "--kind", "line", "--height", "2"])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_run_prints_csv(capsys):
    code = main(["run", "--topology", '{"kind": "tree", "height": 2}',
                 "--seed", "3"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("algorithm,")
    assert lines[1].startswith("gst,7,7,10,")
    assert lines[2].startswith("edcg,7,7,21,")


def test_run_with_scenario_file(tmp_path, capsys):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({
        "topology": {"kind": "line", "n": 4},
        "root": "fixed:n00",
    }))
    code = main(["run", "--scenario", str(scn)])
    assert code == EXIT_OK
    assert ",n00,shortest," in capsys.readouterr().out


def test_run_writes_report_file(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["run", "--topology", '{"kind": "line", "n": 3}',
                 "--out", str(out), "--format", "json"])
    assert code == EXIT_OK
    rows = json.loads(out.read_text())
    assert rows[0]["algorithm"] == "gst"


def test_missing_topology_is_config_error(capsys):
    assert main(["run", "--seed", "1"]) == EXIT_CONFIG


def test_missing_scenario_file_is_config_error(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_compare_succeeds_on_tree(capsys):
    code = main(["compare", "--topology", '{"kind": "tree", "height": 2}'])
    assert code == EXIT_OK


def test_optimize_prints_chosen_root(capsys):
    code = main(["optimize", "--topology", '{"kind": "grid", "rows": 2, "cols": 2}'])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("root=")
    assert "k=" in out.splitlines()[0]


def test_verify_oracle_small(capsys):
    code = main(["verify-oracle", "--samples", "2", "--seed", "5"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "oracle certification passed" in out
    assert "rules_exhaustive_small" in out


def test_verify_oracle_negative_samples_is_config_error(capsys):
    code = main(["verify-oracle", "--samples", "-3"])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "configuration error" in captured.err
    assert "rules_random_five" not in captured.out


def test_verify_oracle_zero_samples(capsys):
    assert main(["verify-oracle", "--samples", "0"]) == EXIT_OK
    assert "rules_random_five: 0/0 ok" in capsys.readouterr().out


def test_verification_failures_exit_two(monkeypatch, capsys):
    def boom(cfg):
        raise AssertionError("dominance reversed")
    monkeypatch.setattr(cli, "compare_scenario", boom)
    code = main(["compare", "--topology", '{"kind": "line", "n": 3}'])
    assert code == EXIT_VERIFY
    assert "verification failure" in capsys.readouterr().err


@pytest.mark.parametrize("root", [5, None, ["fixed:n00"]])
def test_run_with_mistyped_root_is_config_error(tmp_path, capsys, root):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"topology": {"kind": "line", "n": 3}, "root": root}))
    assert main(["run", "--scenario", str(scn)]) == EXIT_CONFIG
    assert "unknown root policy" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "compare", "optimize"])
@pytest.mark.parametrize("output", ["x", None, ["path", "rep.csv"]])
def test_mistyped_output_is_config_error(tmp_path, capsys, verb, output):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"topology": {"kind": "line", "n": 3}, "output": output}))
    assert main([verb, "--scenario", str(scn)]) == EXIT_CONFIG
    assert "scenario output must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "compare", "optimize"])
@pytest.mark.parametrize("output", [{"path": 1}, {"path": True}, {"path": None},
                                    {"format": 0}, {"format": False}, {"format": ["csv"]}])
def test_output_path_and_format_must_be_strings(tmp_path, capsys, verb, output):
    """An integer path would be opened as a file descriptor: the report
    would go into it and the descriptor would be closed."""
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"topology": {"kind": "line", "n": 3}, "output": output}))
    assert main([verb, "--scenario", str(scn)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "must be a string" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("edges", ["gnp:1.5", "gnp:-1", "gnp:nan", "gnp:inf"])
def test_gnp_target_probability_out_of_range_is_config_error(capsys, edges):
    code = main(["run", "--topology", '{"kind": "line", "n": 4}', "--edges", edges])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "edge probability must lie in [0, 1]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("p", ["x", True, None, [0.5], 2])
def test_gnp_target_probability_must_be_a_number(tmp_path, capsys, p):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"topology": {"kind": "line", "n": 4},
                               "target_edges": {"gnp": p}}))
    assert main(["run", "--scenario", str(scn)]) == EXIT_CONFIG
    assert "edge probability must lie in [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("p, shape", [(0, "empty"), (0.0, "empty"),
                                      (1, "complete"), (1.0, "complete")])
def test_gnp_target_probability_bounds_are_allowed(tmp_path, capsys, p, shape):
    topology = '{"kind": "gnp", "n": 8, "p": 0.4}'
    assert main(["run", "--topology", topology, "--edges", shape]) == EXIT_OK
    expected = capsys.readouterr().out
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"topology": json.loads(topology), "target_edges": {"gnp": p}}))
    assert main(["run", "--scenario", str(scn)]) == EXIT_OK
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("verb", ["run", "compare", "optimize"])
@pytest.mark.parametrize("seed", ["x", True, 1.0, None])
def test_scenario_seed_must_be_an_integer(tmp_path, capsys, verb, seed):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"topology": {"kind": "line", "n": 3}, "seed": seed}))
    assert main([verb, "--scenario", str(scn)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "scenario seed must be an integer" in captured.err
    assert "root=" not in captured.out and "gst" not in captured.out


@pytest.mark.parametrize("k", [True, "x", 2.5, 0, 5])
def test_random_target_count_must_be_an_integer_in_range(tmp_path, capsys, k):
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"topology": {"kind": "line", "n": 4},
                               "targets": {"random": k}}))
    assert main(["run", "--scenario", str(scn)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "random target count must be an integer in [1, 4]" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("spec", [
    {"kind": "line", "n": True},
    {"kind": "line", "n": "4"},
    {"kind": "tree", "height": 2.0},
    {"kind": "tree", "height": False},
    {"kind": "grid", "rows": 2, "cols": True},
    {"kind": "grid", "rows": "2", "cols": 3},
    {"kind": "gnp", "n": 5.0, "p": 0.5},
])
def test_topology_sizes_must_be_integers(capsys, spec):
    assert main(["run", "--topology", json.dumps(spec)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "must be an integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("seed", [True, "x", 2.5])
def test_gnp_topology_seed_must_be_an_integer(capsys, seed):
    spec = {"kind": "gnp", "n": 6, "p": 0.5, "seed": seed}
    assert main(["run", "--topology", json.dumps(spec)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "topology parameter 'seed' must be an integer" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("verb", ["run", "compare", "optimize"])
def test_topology_without_nodes_is_config_error(tmp_path, capsys, verb):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps({"nodes": [], "links": []}))
    assert main([verb, "--topology", str(topo)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "topology needs at least one node" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("verb", ["run", "compare", "optimize"])
def test_empty_target_list_is_config_error(tmp_path, capsys, verb):
    """Rejected while the scenario resolves, before any leg runs."""
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"topology": {"kind": "line", "n": 4}, "targets": []}))
    assert main([verb, "--scenario", str(scn)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "target list is empty" in captured.err
    assert captured.out == ""
