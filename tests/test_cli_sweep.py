"""Every document and argv a user can type ends in exit 0, 2 or 3.

A property sweep through ``cli.main``, in process: random JSON in every
scenario key (wrong types, booleans, huge and negative integers, NaN and
infinities, nested lists and objects) and random argv fragments for the
four planning verbs.  Each example must return 0, 2 or 3, print at most one
stderr line and raise nothing.

Sizes inside the size budget can still take seconds and gigabytes (a tree
of height 20 has 2,097,151 nodes and passes it), so generator sizes are
drawn from a small range or from beyond ``network.SIZE_LIMIT``.  File names
have no "/" and the test runs in its own directory, so a drawn output path
writes there and a drawn topology path reads only from there.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as hs

from gstsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, main
from gstsim.edcg import EDCG_MODES
from gstsim.network import SIZE_LIMIT
from gstsim.scenario import REPORT_FORMATS, STRATEGIES, ScenarioConfig
from gstsim.topogen import BUILDERS

PLANNING_VERBS = ["gen-topo", "run", "optimize", "compare"]
# Node ids of the small generated topologies, and some that are not.
NODE_NAMES = ["n00", "n01", "n02", "n07", "n000", "n010", "r00c00", "r01c01", "zz", ""]

# Small enough that the heaviest draw (complete targets on a tree of height
# 8, 511 nodes) runs in well under a second; or over the budget.
SIZES = hs.integers(-2, 8) | hs.integers(SIZE_LIMIT + 1, 2 ** 80) | hs.integers(-2 ** 80, -1)
NAMES = hs.text(hs.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
                max_size=8)
FLOATS = hs.floats(allow_nan=True, allow_infinity=True)
# Any JSON value; its integers are SIZES, since any of them may land on a size.
JSON = hs.recursive(
    hs.none() | hs.booleans() | SIZES | FLOATS | NAMES,
    lambda inner: hs.lists(inner, max_size=4) | hs.dictionaries(NAMES, inner, max_size=4),
    max_leaves=8,
)


def _mostly(valid, junk=JSON):
    """``valid`` nine draws in ten, ``junk`` otherwise, so that most
    documents get past the first check and reach the later ones."""
    return hs.integers(0, 9).flatmap(lambda i: junk if i == 0 else valid)


SIZE = _mostly(hs.integers(1, 8), SIZES | JSON)
TOPOLOGIES = _mostly(hs.one_of(
    hs.fixed_dictionaries({"kind": hs.just("line"), "n": SIZE}),
    hs.fixed_dictionaries({"kind": hs.just("tree"), "height": SIZE}),
    hs.fixed_dictionaries({"kind": hs.just("grid"), "rows": SIZE, "cols": SIZE}),
    hs.fixed_dictionaries({"kind": hs.just("gnp"), "n": SIZE,
                           "p": _mostly(hs.floats(0, 1), FLOATS | JSON)},
                          optional={"seed": _mostly(hs.integers())}),
    hs.dictionaries(NAMES | hs.sampled_from(["kind", "n", "height", "p"]), JSON, max_size=3),
    hs.sampled_from(["topo.json", "missing.json", "", "."]),
))
KEYS = {
    "topology": TOPOLOGIES,
    "targets": _mostly(hs.just("all") | hs.fixed_dictionaries({"random": SIZE})
                       | hs.lists(hs.sampled_from(NODE_NAMES), max_size=4)),
    "target_edges": _mostly(
        hs.sampled_from(["complete", "path", "cycle", "empty", "star"])
        | hs.fixed_dictionaries({"gnp": _mostly(hs.floats(0, 1), FLOATS | JSON)})
        | hs.lists(hs.lists(hs.sampled_from(NODE_NAMES), min_size=1, max_size=3),
                   max_size=3)),
    "root": _mostly(hs.sampled_from(["center", "optimize"])
                    | hs.builds("fixed:{}".format, hs.sampled_from(NODE_NAMES))),
    "strategy": _mostly(hs.sampled_from(STRATEGIES)),
    "edcg_mode": _mostly(hs.sampled_from(EDCG_MODES)),
    "seed": _mostly(hs.integers()),
    "output": _mostly(hs.fixed_dictionaries({}, optional={
        "path": _mostly(hs.sampled_from(["out.csv", "out.json", "", "."])),
        "format": _mostly(hs.sampled_from([*REPORT_FORMATS, "xml"])),
    })),
}
assert set(KEYS) == set(ScenarioConfig._fields)
SCENARIOS = _mostly(
    hs.fixed_dictionaries({"topology": TOPOLOGIES},
                          optional={k: v for k, v in KEYS.items() if k != "topology"}),
    hs.fixed_dictionaries({}, optional={**KEYS, "extra": JSON}) | JSON,
)

# An argv word never starts with "-" unless it is a number: argparse reads
# such a word as a flag, and "--he" would be an abbreviation of --help.
WORDS = (hs.sampled_from(["all", "nan", "inf", "{bad", "{}", "topo.json", "scn.json"])
         | SIZES.map(str) | FLOATS.map(str)
         | JSON.map(json.dumps).filter(lambda word: not word.startswith("-")))
FLAG_VALUES = {
    "--scenario": hs.sampled_from(["scn.json", "missing.json"]),
    "--topology": TOPOLOGIES.map(lambda v: v if isinstance(v, str) else json.dumps(v)),
    "--targets": hs.sampled_from(["all", "n00,n01", "n00", "n00,n00", "zz", ""]),
    "--edges": hs.sampled_from(["complete", "path", "cycle", "empty", "star", "gnp:0.5",
                                "gnp:abc", "gnp:nan", "gnp:"]),
    "--root": hs.sampled_from(["center", "optimize", "fixed:n00", "fixed:zz", "top"]),
    "--strategy": hs.sampled_from(STRATEGIES),
    "--seed": hs.integers().map(str),
    "--out": hs.sampled_from(["out.csv", ".", ""]),
    "--format": hs.sampled_from(REPORT_FORMATS),
    "--kind": hs.sampled_from(sorted(BUILDERS)),
    "--n": SIZE.map(str),
    "--height": SIZE.map(str),
    "--rows": SIZE.map(str),
    "--cols": SIZE.map(str),
    "--p": hs.floats(0, 1).map(str),
}
GEN_TOPO_FLAGS = ["--kind", "--n", "--height", "--rows", "--cols", "--p", "--seed", "--out"]
SCENARIO_FLAGS = ["--scenario", "--topology", "--targets", "--edges", "--root",
                  "--strategy", "--seed", "--out", "--format"]


def _argv(verb):
    """``verb`` and up to six fragments: mostly its own flags with values
    of their kind, otherwise any flag, word, or flag and word."""
    flags = GEN_TOPO_FLAGS if verb == "gen-topo" else SCENARIO_FLAGS
    junk = hs.tuples(hs.sampled_from(sorted(FLAG_VALUES)), WORDS) | hs.tuples(WORDS)
    fragment = _mostly(
        hs.one_of([hs.tuples(hs.just(flag), _mostly(FLAG_VALUES[flag], WORDS))
                   for flag in flags]), junk)
    return hs.lists(fragment, max_size=6).map(
        lambda fragments: [verb] + [word for fragment in fragments for word in fragment])


ARGVS = hs.sampled_from(PLANNING_VERBS).flatmap(_argv)


def _check_exit(code, capsys) -> None:
    assert code in (EXIT_OK, EXIT_VERIFY, EXIT_CONFIG)
    assert capsys.readouterr().err.count("\n") <= 1


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write_files(where, scenario: str) -> None:
    """The scenario and topology files the drawn names may point at, fresh
    for each example (a drawn --out may have overwritten them)."""
    (where / "scn.json").write_text(scenario)
    (where / "topo.json").write_text('{"nodes": ["n00", "n01"], "links": [["n00", "n01"]]}')


SWEEP = settings(max_examples=250, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture,
                                        HealthCheck.too_slow])


@SWEEP
@given(doc=SCENARIOS, verb=hs.sampled_from(PLANNING_VERBS[1:]))
def test_any_scenario_document_ends_in_exit_0_2_or_3(in_tmp, capsys, doc, verb):
    _write_files(in_tmp, json.dumps(doc))
    _check_exit(main([verb, "--scenario", "scn.json"]), capsys)


@SWEEP
@given(argv=ARGVS)
def test_any_argv_ends_in_exit_0_2_or_3(in_tmp, capsys, argv):
    _write_files(in_tmp, '{"topology": {"kind": "line", "n": 3}}')
    _check_exit(main(argv), capsys)
