"""Planning and simulation never import the state-vector oracle or numpy.

``import gstsim`` loads no submodule: each public name and submodule is
imported on first access, so `gen-topo`, `run`, `optimize` and `compare`
start without numpy; `verify-oracle` loads it.  Those four verbs and ``import gstsim.cli`` also leave ``logging``,
``dataclasses`` and ``inspect`` unloaded, which together cost about a third
of a fresh import, and ``run``, ``optimize`` and ``compare`` load no
``typing`` in an interpreter whose ``site`` has not loaded it.  Import
state is process-wide, so the CLI checks run in a fresh interpreter, and
they count only modules that were not loaded before ``import gstsim``
(``site`` may preload some).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gstsim

ORACLE_NAMES = ["StateVector", "build_graph_state", "certification_report",
                "measure_pauli", "verify_graphical_rule", "verify_transfer_sequence"]

KEPT_OFF = ["dataclasses", "inspect", "logging", "numpy"]

# Prints, after each step, which of the KEPT_OFF modules it has loaded
# since the start, then the verify-oracle exit code and whether numpy is
# loaded after it.
PROBE = """
import json, sys
before = set(sys.modules)
kept_off = json.loads(sys.argv[2])
steps = {}
def loaded():
    return [m for m in kept_off if m in sys.modules and m not in before]
import gstsim
steps["import gstsim"] = loaded()
import gstsim.cli
steps["import gstsim.cli"] = loaded()
from gstsim.cli import main
scenario = ["--topology", '{"kind": "grid", "rows": 2, "cols": 3}', "--seed", "1"]
for argv in (["gen-topo", "--kind", "line", "--n", "4", "--out", sys.argv[1]],
             ["run"] + scenario, ["optimize"] + scenario, ["compare"] + scenario):
    assert main(argv) == 0, argv
    steps[argv[0]] = loaded()
code = main(["verify-oracle", "--samples", "1"])
print(json.dumps({"steps": steps, "oracle_exit": code,
                  "oracle_numpy": "numpy" in sys.modules}))
"""
STEPS = ["import gstsim", "import gstsim.cli", "gen-topo", "run", "optimize", "compare"]


# ``site`` may preload ``typing``, so PROBE cannot see it; this runs without
# ``site`` (python -S) and prints whether the planning verbs loaded it.
NO_SITE_PROBE = """
import sys
from gstsim.cli import main
scenario = ["--topology", '{"kind": "grid", "rows": 2, "cols": 3}', "--seed", "1"]
for verb in ("run", "optimize", "compare"):
    assert main([verb] + scenario) == 0, verb
print("typing" in sys.modules)
"""


def fresh_python(code: str, *args: str, flags: tuple = ()) -> str:
    """Run ``code`` in a new interpreter (with interpreter ``flags``) that
    imports this gstsim; returns the last line it printed."""
    src = str(Path(gstsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, *flags, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    out = tmp_path_factory.mktemp("probe") / "line.json"
    return json.loads(fresh_python(PROBE, str(out), json.dumps(KEPT_OFF)))


def test_cli_verbs_leave_numpy_unloaded(probe):
    assert [step for step in STEPS if "numpy" in probe["steps"][step]] == []
    assert probe["oracle_exit"] == 0
    assert probe["oracle_numpy"]


def test_cli_start_up_leaves_logging_and_dataclasses_unloaded(probe):
    """Neither ``import gstsim.cli`` nor a planning verb loads any of
    KEPT_OFF: records are plain classes, and only a warning imports
    ``logging``."""
    assert probe["steps"] == {step: [] for step in STEPS}


def test_cli_verbs_leave_typing_unloaded_without_site():
    assert fresh_python(NO_SITE_PROBE, flags=("-S",)) == "False"


def test_oracle_attribute_imports_the_submodule():
    assert fresh_python(
        "import sys, gstsim\n"
        "before = 'gstsim.oracle' in sys.modules\n"
        "print(before, gstsim.oracle is sys.modules['gstsim.oracle'])"
    ) == "False True"


def test_lazy_names_resolve_to_the_oracle():
    import gstsim.oracle

    for name in ORACLE_NAMES:
        assert getattr(gstsim, name) is getattr(gstsim.oracle, name)
    assert gstsim.StateVector is gstsim.oracle.StateVector
    assert gstsim.oracle is sys.modules["gstsim.oracle"]


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from gstsim import *", namespace)
    assert set(gstsim.__all__) <= set(namespace)
    assert set(ORACLE_NAMES) <= set(gstsim.__all__)
    assert namespace["certification_report"] is gstsim.oracle.certification_report


def test_dir_lists_the_lazy_names():
    listed = dir(gstsim)
    assert set(ORACLE_NAMES) | {"oracle"} <= set(listed)
    assert set(gstsim.__all__) <= set(listed)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        gstsim.not_a_name
    assert not hasattr(gstsim, "numpy")


CLI_MODULES = ["gstsim.distribution", "gstsim.edcg", "gstsim.flow", "gstsim.graphstate",
               "gstsim.network", "gstsim.record", "gstsim.scenario", "gstsim.topogen"]

# Prints the gstsim submodules loaded after the import given as argv[1].
SUBMODULE_PROBE = """
import sys
exec(sys.argv[1])
print(sorted(m for m in sys.modules if m.startswith("gstsim.")))
"""


def test_import_gstsim_loads_no_submodule():
    assert fresh_python(SUBMODULE_PROBE, "import gstsim") == "[]"
    assert fresh_python(SUBMODULE_PROBE, "import gstsim.cli") == str(
        sorted(CLI_MODULES + ["gstsim.cli"]))


def test_a_submodule_import_loads_only_what_it_needs():
    assert fresh_python(SUBMODULE_PROBE, "from gstsim.topogen import tree_topology") == str(
        ["gstsim.graphstate", "gstsim.network", "gstsim.topogen"])


def test_each_public_name_is_its_home_modules_object():
    """Every name in ``__all__`` resolves to the object the module that
    defines it holds, and each submodule name to that submodule."""
    for name in gstsim.__all__:
        if name == "__version__":
            continue
        obj = getattr(gstsim, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("gstsim.")
        assert getattr(home, name) is obj
        assert getattr(gstsim, home.__name__.split(".")[1]) is home


def test_no_member_restates_another_public_call():
    """Seven names that only restated another public call are gone; each
    caller reads the call it restated."""
    from gstsim import distribution, edcg, flow, network, oracle, scenario

    resolved = scenario.resolve(scenario.ScenarioConfig.from_dict(
        {"topology": {"kind": "line", "n": 3}}))
    gone = [(network.NetworkTopology, "has_link"), (network.NetworkTopology, "eccentricity"),
            (distribution.DistributionPlan, "hops"), (flow, "min_saturating_k"),
            (oracle, "verify_teleport_transfer"), (edcg._SuffixChain, "mst"),
            (resolved, "target_graph")]
    assert [name for owner, name in gone if hasattr(owner, name)] == []
    assert len(gstsim.__all__) == 39 + 1 and gstsim.__all__[-1] == "__version__"
