"""Planning and simulation never import the state-vector oracle or numpy.

``gstsim`` resolves the oracle's names on first access, so `gen-topo`,
`run`, `optimize` and `compare` start without numpy; `verify-oracle` loads
it.  Import state is process-wide, so the CLI checks run in a fresh
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gstsim

ORACLE_NAMES = ["StateVector", "build_graph_state", "certification_report",
                "lc_equivalent", "measure_pauli", "verify_graphical_rule",
                "verify_teleport_transfer", "verify_transfer_sequence"]

# Prints, after each step, whether numpy has been imported, then the
# verify-oracle exit code and whether numpy is loaded after it.
PROBE = """
import json, sys
steps = {}
import gstsim
steps["import gstsim"] = "numpy" in sys.modules
import gstsim.cli
steps["import gstsim.cli"] = "numpy" in sys.modules
from gstsim.cli import main
scenario = ["--topology", '{"kind": "grid", "rows": 2, "cols": 3}', "--seed", "1"]
for argv in (["gen-topo", "--kind", "line", "--n", "4", "--out", sys.argv[1]],
             ["run"] + scenario, ["optimize"] + scenario, ["compare"] + scenario):
    assert main(argv) == 0, argv
    steps[argv[0]] = "numpy" in sys.modules
code = main(["verify-oracle", "--samples", "1"])
print(json.dumps({"steps": steps, "oracle_exit": code,
                  "oracle_numpy": "numpy" in sys.modules}))
"""


def fresh_python(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter that imports this gstsim; returns
    the last line it printed."""
    src = str(Path(gstsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_verbs_leave_numpy_unloaded(tmp_path):
    result = json.loads(fresh_python(PROBE, str(tmp_path / "line.json")))
    assert result["steps"] == {"import gstsim": False, "import gstsim.cli": False,
                               "gen-topo": False, "run": False,
                               "optimize": False, "compare": False}
    assert result["oracle_exit"] == 0
    assert result["oracle_numpy"]


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
