"""CLI verbs and exit codes (in-process via main())."""

import hashlib
import json

import pytest

import gstsim.cli as cli
import gstsim.scenario
from gstsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, main
from gstsim.network import topology_to_dict
from gstsim.topogen import generate_topology


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


def test_gen_topo_gnp_uses_the_seed_flag(capsys):
    argv = ["gen-topo", "--kind", "gnp", "--n", "12", "--p", "0.3"]
    for seed in (5, 6):
        assert main(argv + ["--seed", str(seed)]) == EXIT_OK
        expected = generate_topology("gnp", n=12, p=0.3, seed=seed)
        assert json.loads(capsys.readouterr().out) == topology_to_dict(expected)
    assert (topology_to_dict(generate_topology("gnp", n=12, p=0.3, seed=5))
            != topology_to_dict(generate_topology("gnp", n=12, p=0.3, seed=6)))


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


def test_target_and_strategy_flags_match_the_scenario_file(tmp_path, capsys):
    topology = {"kind": "grid", "rows": 3, "cols": 4}
    targets = ["r00c00", "r01c02", "r02c03", "r02c01"]
    code = main(["run", "--topology", json.dumps(topology), "--targets", ",".join(targets),
                 "--edges", "path", "--strategy", "flow", "--root", "fixed:r01c01",
                 "--seed", "2"])
    assert code == EXIT_OK
    from_flags = capsys.readouterr().out
    assert from_flags.splitlines()[1].startswith("gst,12,4,")
    assert ",r01c01,flow,2" in from_flags
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"topology": topology, "targets": targets,
                               "target_edges": "path", "strategy": "flow",
                               "root": "fixed:r01c01", "seed": 2}))
    assert main(["run", "--scenario", str(scn)]) == EXIT_OK
    assert capsys.readouterr().out == from_flags


def test_missing_topology_is_config_error(capsys):
    assert main(["run", "--seed", "1"]) == EXIT_CONFIG
    assert "scenario needs a 'topology' entry" in capsys.readouterr().err


def test_unknown_scenario_keys_are_reported_first(tmp_path, capsys):
    """The document is checked by ScenarioConfig.from_dict alone, unknown
    keys before a missing topology or a malformed output."""
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"rooot": "center", "output": "x"}))
    assert main(["run", "--scenario", str(scn)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: unknown scenario keys: ['rooot']\n"


def test_missing_scenario_file_is_config_error(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.json")]) == EXIT_CONFIG


@pytest.mark.parametrize("argv, message", [
    (["run", "--strategy", "bogus"], "argument --strategy: invalid choice: 'bogus'"),
    (["run", "--topology", '{"kind": "line", "n": 3}', "--format", "xml"],
     "argument --format: invalid choice: 'xml'"),
    (["run", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["run", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: verb"),
    (["run", "--topology", '{"kind":"line","n":3}', "--edges", "gnp:abc"],
     "argument --edges: invalid edge probability 'abc'\n"),
    (["run", "--topology", "{bad"],
     "argument --topology: invalid JSON: Expecting property name enclosed in double quotes"),
], ids=["strategy", "format", "seed", "unknown-flag", "no-verb", "gnp-edges", "topology-json"])
def test_malformed_flag_is_config_error(capsys, argv, message):
    """A bad flag is a configuration error, as the same value in a scenario
    file is: main returns 3 with argparse's message and runs nothing."""
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: {message}")
    assert captured.out == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--strategy" in capsys.readouterr().out


def test_one_parser_serves_every_call(capsys):
    """The parser is built once per process, and neither a malformed flag
    nor --help leaves state on it that breaks the next call."""
    parser = cli.build_parser()
    argv = ["run", "--topology", '{"kind": "line", "n": 3}']
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr().out
    assert main(["run", "--strategy", "bogus"]) == EXIT_CONFIG
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == expected
    assert cli.build_parser() is parser


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


def test_verify_oracle_pinned_output(capsys):
    assert main(["verify-oracle", "--samples", "20", "--seed", "7"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "rules_exhaustive_small: 334/334 ok\n"
        "rules_random_five: 200/200 ok\n"
        "teleport_projections: 11/11 ok\n"
        "transfer_sequence: 11/11 ok\n"
        "oracle certification passed\n"
    )


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
@pytest.mark.parametrize("root, message", [
    ("fixed:zz", "fixed root 'zz' is not a topology node"),
    ("bogus", "unknown root policy 'bogus'"),
])
def test_malformed_root_is_config_error(capsys, verb, root, message):
    """Checked while the scenario resolves, so compare and optimize, which
    pick their own roots, reject it as run does."""
    code = main([verb, "--topology", '{"kind": "line", "n": 4}', "--root", root])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", ['[["topology", {"kind": "line", "n": 3}]]',
                                  '"abc"', "3", "null"])
def test_scenario_file_must_hold_an_object(tmp_path, capsys, text):
    scn = tmp_path / "scn.json"
    scn.write_text(text)
    assert main(["run", "--scenario", str(scn)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "scenario file must hold a JSON object" in captured.err
    assert captured.out == ""


def test_out_flag_does_not_carry_over_to_the_next_run(tmp_path, capsys):
    """Every config starts from its own output settings: a run without
    --out prints its report even after a run that wrote to a file."""
    path = tmp_path / "rep.csv"
    argv = ["run", "--topology", '{"kind": "line", "n": 3}']
    assert main(argv + ["--out", str(path)]) == EXIT_OK
    written = path.read_text()
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == written


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


@pytest.mark.parametrize("verb", ["run", "compare", "optimize"])
def test_unknown_report_format_is_rejected_before_running(tmp_path, capsys, monkeypatch, verb):
    """The format is checked with the other output entries, so no scenario
    resolves and `optimize` prints no root line."""
    monkeypatch.setattr(gstsim.scenario, "resolve", lambda cfg: pytest.fail("resolved"))
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"topology": {"kind": "line", "n": 4}, "output": {"format": "xml"}}))
    assert main([verb, "--scenario", str(scn)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "unknown report format 'xml'" in captured.err
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



@pytest.mark.parametrize("verb", ["run", "compare", "optimize"])
@pytest.mark.parametrize("key, value, message", [
    ("strategy", "bogus", "unknown strategy 'bogus'"),
    ("edcg_mode", "Lex", "unknown ordering mode 'Lex'"),
])
def test_unknown_strategy_or_edcg_mode_is_config_error(tmp_path, capsys, verb,
                                                      key, value, message):
    """Rejected while the scenario resolves, before any leg runs, even where
    the verb or an optimized root never reads the value."""
    scn = tmp_path / "scn.json"
    scn.write_text(json.dumps({"topology": {"kind": "line", "n": 4},
                               "root": "optimize", key: value}))
    assert main([verb, "--scenario", str(scn)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""

# (topology, targets, target_edges, fixed root) of the pinned report scenarios
PINNED_SETTINGS = (
    ({"kind": "tree", "height": 4}, "all", "path", "n07"),
    ({"kind": "grid", "rows": 5, "cols": 6}, {"random": 8}, "complete", "r00c00"),
    ({"kind": "gnp", "n": 30, "p": 0.12}, "all", {"gnp": 0.3}, "n00"),
)


def _pinned_scenarios():
    """(verb, scenario) for every verb and root policy on three topologies."""
    bases = []
    for topology, targets, edges, fixed in PINNED_SETTINGS:
        base = dict(topology=topology, targets=targets, target_edges=edges, seed=3)
        bases.append(base)
        for root in ("center", f"fixed:{fixed}"):
            for strategy in ("shortest", "flow"):
                yield "run", dict(base, root=root, strategy=strategy)
        yield "run", dict(base, root="optimize")
        yield "compare", base
        yield "optimize", base
    yield "run", dict(bases[1], edcg_mode="exhaustive")
    yield "compare", dict(bases[0], edcg_mode="lex")


# (stdout SHA-256, exit code) of each pinned scenario, in order
PINNED_REPORTS = (
    ("e346b9f2dc301423b3ce46fd0d3b915e7966e549fceeae8e9416fff86a1e8191", 0),  # tree run center shortest
    ("c15bcb2ff4144affaddfa468bb7cbbbbbcd4625ce5a636f4a652d9269cfd687c", 0),  # tree run center flow
    ("5a9f9dd9d467265eac4488839abf6a6aee45f643da2c2c42c30f4d5ddc7fd964", 0),  # tree run fixed:n07 shortest
    ("9cdefcc5f9ae8cc78dfb8dc83a62fd3d40758ed647aff372e1a18540127a01b0", 0),  # tree run fixed:n07 flow
    ("effc3dc59bc7c360108f076b4c2e3570154f33590dc9b1416a05ca8376cebdeb", 0),  # tree run optimize
    ("3ee00d8abb6ccde81aed84d64ebdf3f540297b779e6d47f13daaeaeb22b1e5b3", 0),  # tree compare
    ("abeadd55d63026278179b958057a6f6bb03d2139fd3e8af1b402db7fa89de3cc", 0),  # tree optimize
    ("a47c4cc6f4761d78caa73398a0de39529e2f6c0056e5b66d2b80d1bc8ffcbdbf", 0),  # grid run center shortest
    ("304e194dae288aacd3b1ae5b4f3bd22b4746f2bdefb146cf7d57feaf3a8634c0", 0),  # grid run center flow
    ("0cf2c187eeaa9bdcf669eeafd33a33c649b2ed0cd2824f0514d00ab72fb8e9a1", 0),  # grid run fixed:r00c00 shortest
    ("1f5598f9735536b99742b193fc8ef4117cd989d7dcac248bc8efa21a2a311209", 0),  # grid run fixed:r00c00 flow
    ("66c52b1749aab70e660e1c670e1123e810820948df480545532a3f9d38ab6dcb", 0),  # grid run optimize
    ("cef73b8dcff8fae26773e5489c668977271100e6ae3a100fdb83d2999890ac97", 0),  # grid compare
    ("2d2d5a2add16aa91d640706d8d8e9be51c127180cf47bc22b3606316830508d7", 0),  # grid optimize
    ("9e238657987d2d999d6bdc3887d81f61e3b60301c18e9bae4fdaac3def7a1d83", 0),  # gnp run center shortest
    ("71900db00a76959519d2396fa2a1e215b0b2738c7ba267240e7cfe984bad1773", 0),  # gnp run center flow
    ("eb454bab5bc9d8c0274a303718d397383a1856789dc60eb03b49f4e74bd554c4", 0),  # gnp run fixed:n00 shortest
    ("e86b5793b0f88efebf7ba86635c5b11d423e120184b9d28afa5236d49b045e4f", 0),  # gnp run fixed:n00 flow
    ("964cfbaee9f07f9aacc51c08da03e23ff8d1cca17f55f7d5b9359887f47dd7ed", 0),  # gnp run optimize
    ("b608185b300b8eee257352337355e8a745c9811bacb8cf4a0754d85eabfd8eee", 0),  # gnp compare
    ("c89bef78e3b573fc0ba02acab563d2be6ed4cf9639b1ac563ed8b849d847bccf", 0),  # gnp optimize
    ("a47c4cc6f4761d78caa73398a0de39529e2f6c0056e5b66d2b80d1bc8ffcbdbf", 0),  # grid run exhaustive
    ("fec8d276f4287c546d284372d3482efb7d501c7ab13799bfaec882efe1b0b503", 0),  # tree compare lex
)


def test_pinned_report_bytes(tmp_path, capsys):
    """Every verb and root policy prints the same bytes and exit code."""
    got = []
    for i, (verb, scenario) in enumerate(_pinned_scenarios()):
        scn = tmp_path / f"scn{i}.json"
        fmt = ("csv", "json")[i % 2]
        scn.write_text(json.dumps(dict(scenario, output={"format": fmt})))
        code = main([verb, "--scenario", str(scn)])
        out = capsys.readouterr().out
        got.append((hashlib.sha256(out.encode()).hexdigest(), code))
    assert tuple(got) == PINNED_REPORTS
