#!/usr/bin/env python3
"""One-shot record of the four hot spots named in ROADMAP item 1.

    python3 bench/hotspots.py [--out bench/hotspots_seed.json]

Times, once each and untraced, through the library calls a `gstsim` command
makes:
  execute on line(300)                     path target on every node, center root
  edcg_cost on grid 15x15                  every node a terminal
  edcg_cost on line(300)                   every node a terminal
  minimize_completion_time on grid 12x12   every node a target
then repeats each under the benchmark's tracer to record its work counts.
One pass takes minutes, so these are not ladder rungs of run_bench.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from run_bench import load_cli
import spans

COUNTS = ("distribution.epr_pairs", "distribution.rounds", "graphstate.rewrite_calls",
          "graphstate.lc_pair_toggles", "network.bfs_calls", "edcg.steiner_tree_calls",
          "flow.max_flow_calls")


def hotspots():
    """(name, seconds the ROADMAP measured, zero-argument call) per hot spot."""
    from gstsim import scenario
    from gstsim.distribution import DistributionRequest, center_root, make_schedule, plan_shortest
    from gstsim.graphstate import GraphState
    from gstsim.network import NetworkState
    from gstsim.topogen import grid_topology, line_topology

    line = line_topology(300)
    nodes = list(line.nodes)
    request = DistributionRequest(GraphState(nodes, list(zip(nodes, nodes[1:]))),
                                  {v: v for v in nodes})
    plan = plan_shortest(line, nodes, center_root(line))
    schedule = make_schedule(plan)
    grid15, grid12 = grid_topology(15, 15), grid_topology(12, 12)
    # Look the functions up where the CLI's scenario layer does, so the
    # tracer sees them.
    return (
        ("execute line(300) path", 14.8,
         lambda: scenario.execute(NetworkState(line), request, plan, schedule)),
        ("edcg_cost grid 15x15", 19.0,
         lambda: scenario.edcg_cost(grid15, list(grid15.nodes))),
        ("edcg_cost line(300)", 32.0,
         lambda: scenario.edcg_cost(line, nodes)),
        ("minimize_completion_time grid 12x12", 11.3,
         lambda: scenario.minimize_completion_time(grid12, list(grid12.nodes))),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent
                                             / "hotspots_seed.json"))
    args = parser.parse_args(argv)
    load_cli()
    records = []
    for name, roadmap_s, call in hotspots():
        start = time.perf_counter()
        call()
        seconds = time.perf_counter() - start
        tracer = spans.Tracer()
        tracer.install()
        try:
            call()
        finally:
            tracer.uninstall()
        figures = tracer.metrics()
        record = {"name": name, "seconds": round(seconds, 3), "roadmap_seconds": roadmap_s,
                  "counts": {k: figures[k] for k in COUNTS if figures[k]}}
        print(json.dumps(record), flush=True)
        records.append(record)
    doc = {
        "what": "ROADMAP item 1 hot spots, one untraced run each, at the benchmark's "
                "first commit",
        "host": {"cpus": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                 "machine": platform.machine()},
        "hotspots": records,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
