"""The benchmark's workloads: ladders of `gstsim` CLI calls built from a seed.

Each workload is one verb of the command line run over a fixed ladder of
scenario shapes ("rungs").  The workload seed only picks each rung's scenario
seed, which in turn draws the gnp topologies, random target sets and `gnp:p`
target graphs inside the program; the program sees nothing but the scenario
files.  Rungs are listed smallest first, and the last one is the largest
scenario a user waits on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Rung:
    name: str
    verb: str
    scenario: dict  # scenario file content, without the "output" block
    fmt: str        # report format the scenario asks for


def _line(n):
    return {"kind": "line", "n": n}


def _grid(side):
    return {"kind": "grid", "rows": side, "cols": side}


def _tree(height):
    return {"kind": "tree", "height": height}


def _gnp(n, p):
    return {"kind": "gnp", "n": n, "p": p}


# name -> verb, why (one line, copied into BENCHMARK.json), the layer counters
# the workload must never touch, and the rungs as
# (label, topology, targets, target_edges, report format).
WORKLOADS = {
    "dense-run": {
        "verb": "run",
        "why": "gstsim run with complete and gnp:0.3 targets from a center root: "
               "the only ladder where graphstate local complementation dominates",
        "bypass": ("flow.max_flow_calls",),
        "rungs": (
            ("line24-complete", _line(24), "all", "complete", "csv"),
            ("grid6-gnp", _grid(6), "all", {"gnp": 0.3}, "csv"),
            ("line40-gnp", _line(40), "all", {"gnp": 0.3}, "csv"),
            ("gnp40-complete", _gnp(40, 0.15), "all", "complete", "json"),
            ("grid7-complete", _grid(7), "all", "complete", "csv"),
            ("grid10-r40-complete", _grid(10), {"random": 40}, "complete", "csv"),
            ("line44-complete", _line(44), "all", "complete", "csv"),
        ),
    },
    "sparse-compare": {
        "verb": "compare",
        "why": "gstsim compare with path targets on every node: EDCG Steiner trees "
               "and network BFS bound, long copy-bound hops with few toggles",
        "bypass": ("flow.max_flow_calls",),
        "rungs": (
            ("tree5-path", _tree(5), "all", "path", "csv"),
            ("line60-path", _line(60), "all", "path", "csv"),
            ("grid8-path", _grid(8), "all", "path", "json"),
            ("gnp60-path", _gnp(60, 0.06), "all", "path", "csv"),
            ("line80-path", _line(80), "all", "path", "csv"),
        ),
    },
    "optimize-flow": {
        "verb": "optimize",
        "why": "gstsim optimize with path targets: max-flow bound over every root, "
               "never calls the EDCG baseline, so it bypasses edcg and most BFS",
        "bypass": ("edcg.cost_calls",),
        "rungs": (
            ("grid6-path", _grid(6), "all", "path", "csv"),
            ("tree4-path", _tree(4), "all", "path", "csv"),
            ("line40-path", _line(40), "all", "path", "json"),
            ("gnp50-path", _gnp(50, 0.08), "all", "path", "csv"),
            ("gnp80-r24-path", _gnp(80, 0.05), {"random": 24}, "path", "csv"),
            ("grid8-path", _grid(8), "all", "path", "csv"),
        ),
    },
}


def build_rungs(workload: str, seed: int) -> list[Rung]:
    """The workload's ladder for one seed; the same seed gives the same files."""
    spec = WORKLOADS[workload]
    rng = random.Random(seed)
    rungs = []
    for label, topology, targets, edges, fmt in spec["rungs"]:
        scenario = {
            "topology": topology,
            "targets": targets,
            "target_edges": edges,
            "seed": rng.randrange(1 << 31),
        }
        if spec["verb"] == "run":
            scenario.update(root="center", strategy="shortest")
        rungs.append(Rung(label, spec["verb"], scenario, fmt))
    return rungs
