"""Per-layer spans around the gstsim modules, installed from outside the package.

A `Tracer` replaces each traced function at the name its caller looks it up
by (a module global such as ``gstsim.scenario.execute``, or a class
attribute such as ``GraphState.local_complement``) with a wrapper that times
the call, counts it and charges its duration to the enclosing span.  A
function bound under two names shares one wrapper, so nothing is counted
twice.  Self time is a span's duration minus the time of the traced spans it
opened.  Aggregates are kept for every span; the coarse spans (commands,
scenario steps, planners, executions) are also kept one by one, in memory,
with their parent, and written out once when the benchmark ends.

``gstsim.oracle`` is not traced: it exists to be obviously correct, not fast.
"""

from __future__ import annotations

import importlib
import time
from statistics import median_low

# (module, class or None, attribute, span name, keep each span)
TARGETS = (
    ("gstsim.cli", None, "main", "cli.main", True),
    ("gstsim.cli", None, "run_scenario", "scenario.run_scenario", True),
    ("gstsim.cli", None, "compare_scenario", "scenario.compare_scenario", True),
    ("gstsim.cli", None, "optimize_scenario", "scenario.optimize_scenario", True),
    ("gstsim.cli", None, "emit_report", "scenario.emit_report", True),
    ("gstsim.scenario", None, "resolve", "scenario.resolve", True),
    ("gstsim.scenario", None, "generate_topology", "topogen.generate_topology", True),
    ("gstsim.scenario", None, "execute", "distribution.execute", True),
    ("gstsim.scenario", None, "plan_shortest", "distribution.plan_shortest", True),
    ("gstsim.scenario", None, "center_root", "distribution.center_root", True),
    ("gstsim.scenario", None, "make_schedule", "distribution.make_schedule", True),
    ("gstsim.distribution", None, "make_schedule", "distribution.make_schedule", True),
    ("gstsim.scenario", None, "edcg_cost", "edcg.edcg_cost", True),
    ("gstsim.edcg", None, "steiner_tree", "edcg.steiner_tree", False),
    ("gstsim.scenario", None, "minimize_completion_time",
     "flow.minimize_completion_time", True),
    ("gstsim.scenario", None, "min_saturating_k", "flow.min_saturating_k", True),
    ("gstsim.flow", None, "min_saturating_k", "flow.min_saturating_k", True),
    ("gstsim.scenario", None, "max_flow", "flow.max_flow", False),
    ("gstsim.flow", None, "max_flow", "flow.max_flow", False),
    ("gstsim.scenario", None, "decompose_flow", "flow.decompose_flow", True),
    ("gstsim.flow", None, "decompose_flow", "flow.decompose_flow", True),
    ("gstsim.flow", "FlowInstance", "__post_init__", "flow.FlowInstance", False),
    ("gstsim.network", None, "verify_target", "network.verify_target", True),
    ("gstsim.network", "NetworkTopology", "bfs_distances", "network.bfs_distances", False),
    ("gstsim.network", "NetworkTopology", "shortest_path", "network.shortest_path", False),
    ("gstsim.network", "NetworkState", "new_qubit", "network.state.new_qubit", False),
    ("gstsim.network", "NetworkState", "generate_epr", "network.state.generate_epr", False),
    ("gstsim.network", "NetworkState", "apply_cz", "network.state.apply_cz", False),
    ("gstsim.network", "NetworkState", "measure_y", "network.state.measure_y", False),
    ("gstsim.network", "NetworkState", "measure_z", "network.state.measure_z", False),
    ("gstsim.graphstate", "GraphState", "add_vertex", "graphstate.add_vertex", False),
    ("gstsim.graphstate", "GraphState", "toggle_edge", "graphstate.toggle_edge", False),
    ("gstsim.graphstate", "GraphState", "local_complement", "graphstate.local_complement", False),
    ("gstsim.graphstate", "GraphState", "measure_z", "graphstate.measure_z", False),
    ("gstsim.graphstate", "GraphState", "measure_y", "graphstate.measure_y", False),
)

GRAPH_REWRITES = ("graphstate.add_vertex", "graphstate.toggle_edge",
                  "graphstate.local_complement", "graphstate.measure_z")
STATE_OPS = ("network.state.new_qubit", "network.state.generate_epr",
             "network.state.apply_cz", "network.state.measure_y",
             "network.state.measure_z")

# Every per-layer metric with its unit, in the order BENCHMARK.json lists them.
# Figures are per ladder pass.  "<layer>.<x>_s" is inclusive span time and
# "_self_s" excludes traced children.  graphstate.rewrite_calls counts the
# primitive rewrites (not the composite GraphState.measure_y);
# network.state_ops counts every NetworkState operation, including the two
# new_qubit calls inside each generate_epr; distribution.hops_per_s is
# epr_pairs over execute_s.
PER_LAYER = (
    ("graphstate.rewrite_calls", "count"),
    ("graphstate.rewrite_s", "s"),
    ("graphstate.lc_pair_toggles", "count"),
    ("network.bfs_calls", "count"),
    ("network.bfs_s", "s"),
    ("network.shortest_path_calls", "count"),
    ("network.state_ops", "count"),
    ("network.state_self_s", "s"),
    ("network.verify_target_s", "s"),
    ("network.generate_epr_calls", "count"),
    ("network.measure_y_calls", "count"),
    ("distribution.execute_s", "s"),
    ("distribution.execute_self_s", "s"),
    ("distribution.epr_pairs", "count"),
    ("distribution.rounds", "count"),
    ("distribution.hops_per_s", "1/s"),
    ("distribution.plan_shortest_s", "s"),
    ("distribution.center_root_s", "s"),
    ("distribution.make_schedule_s", "s"),
    ("flow.max_flow_calls", "count"),
    ("flow.max_flow_s", "s"),
    ("flow.instance_s", "s"),
    ("flow.decompose_s", "s"),
    ("flow.optimize_self_s", "s"),
    ("edcg.cost_calls", "count"),
    ("edcg.cost_s", "s"),
    ("edcg.steiner_tree_calls", "count"),
    ("edcg.steiner_tree_s", "s"),
    ("topogen.generate_s", "s"),
    ("scenario.resolve_s", "s"),
    ("scenario.emit_report_s", "s"),
    ("scenario.report_bytes", "bytes"),
    ("cli.main_self_s", "s"),
    ("trace.overhead_s", "s"),
)

# Spans whose inclusive share of a traced pass tells which layer leads it.
HEADLINE_SPANS = ("distribution.execute", "edcg.edcg_cost", "network.bfs_distances",
                  "flow.minimize_completion_time")


def _count_lc_toggles(counters, args):
    graph, vertex = args[0], args[1]
    d = graph.degree(vertex)
    counters["lc_pair_toggles"] += d * (d - 1) // 2


def _count_run_report(counters, report):
    counters["epr_pairs"] += report.epr_pairs
    counters["rounds"] += report.timesteps


def _count_report_bytes(counters, text):
    counters["report_bytes"] += len(text.encode())


PRE_HOOKS = {"graphstate.local_complement": _count_lc_toggles}
POST_HOOKS = {"distribution.execute": _count_run_report,
              "scenario.emit_report": _count_report_bytes}


class Tracer:
    """Spans of one traced ladder pass; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.stats: dict = {}     # span name -> [calls, total_s, self_s]
        self.counters = {"lc_pair_toggles": 0, "epr_pairs": 0, "rounds": 0,
                         "report_bytes": 0}
        self.spans: list = []     # kept spans: (name, parent index, start, end, request)
        self.request = None       # the rung a span belongs to
        self._stack: list = []    # open spans: [child_s, index of nearest kept span]
        self._patched: list = []  # (owner, attribute, original)
        self.missing: list = []   # targets the program no longer has

    def install(self) -> None:
        wrappers = {}
        for module_name, class_name, attr, name, keep in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}:{class_name or ''}.{attr}")
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name, keep)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, keep):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, counters = self._stack, self.spans, self.counters
        pre, post = PRE_HOOKS.get(name), POST_HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if pre is not None:
                pre(counters, args)
            parent = stack[-1][1] if stack else None
            entry = [0.0, parent]
            if keep:
                entry[1] = len(spans)
                spans.append(None)
            stack.append(entry)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - entry[0]
                if keep:
                    spans[entry[1]] = (name, parent, start, end, self.request)
            if post is not None:
                post(counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- derived figures -------------------------------------------------------

    def calls(self, *names) -> int:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def total(self, *names) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(self, *names) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def metrics(self) -> dict:
        """Per-layer figures of this pass (all but trace.overhead_s)."""
        c = self.counters
        execute_s = self.total("distribution.execute")
        return {
            "graphstate.rewrite_calls": self.calls(*GRAPH_REWRITES),
            "graphstate.rewrite_s": self.self_time(*GRAPH_REWRITES, "graphstate.measure_y"),
            "graphstate.lc_pair_toggles": c["lc_pair_toggles"],
            "network.bfs_calls": self.calls("network.bfs_distances"),
            "network.bfs_s": self.total("network.bfs_distances"),
            "network.shortest_path_calls": self.calls("network.shortest_path"),
            "network.state_ops": self.calls(*STATE_OPS),
            "network.state_self_s": self.self_time(*STATE_OPS),
            "network.verify_target_s": self.total("network.verify_target"),
            "network.generate_epr_calls": self.calls("network.state.generate_epr"),
            "network.measure_y_calls": self.calls("network.state.measure_y"),
            "distribution.execute_s": execute_s,
            "distribution.execute_self_s": self.self_time("distribution.execute"),
            "distribution.epr_pairs": c["epr_pairs"],
            "distribution.rounds": c["rounds"],
            "distribution.hops_per_s": c["epr_pairs"] / execute_s if execute_s else 0.0,
            "distribution.plan_shortest_s": self.total("distribution.plan_shortest"),
            "distribution.center_root_s": self.total("distribution.center_root"),
            "distribution.make_schedule_s": self.total("distribution.make_schedule"),
            "flow.max_flow_calls": self.calls("flow.max_flow"),
            "flow.max_flow_s": self.total("flow.max_flow"),
            "flow.instance_s": self.total("flow.FlowInstance"),
            "flow.decompose_s": self.total("flow.decompose_flow"),
            "flow.optimize_self_s": self.self_time("flow.minimize_completion_time",
                                                   "flow.min_saturating_k"),
            "edcg.cost_calls": self.calls("edcg.edcg_cost"),
            "edcg.cost_s": self.total("edcg.edcg_cost"),
            "edcg.steiner_tree_calls": self.calls("edcg.steiner_tree"),
            "edcg.steiner_tree_s": self.total("edcg.steiner_tree"),
            "topogen.generate_s": self.total("topogen.generate_topology"),
            "scenario.resolve_s": self.total("scenario.resolve"),
            "scenario.emit_report_s": self.total("scenario.emit_report"),
            "scenario.report_bytes": c["report_bytes"],
            "cli.main_self_s": self.self_time("cli.main"),
        }


def self_check_problems(totals: dict, bypass) -> list[str]:
    """Identities every traced ladder must satisfy, checked on summed counts."""
    problems = []
    epr = totals["distribution.epr_pairs"]
    if totals["network.measure_y_calls"] != 2 * epr:
        problems.append(f"NetworkState.measure_y calls {totals['network.measure_y_calls']}"
                        f" != 2 x epr_pairs {epr}")
    if totals["network.generate_epr_calls"] != epr:
        problems.append(f"generate_epr calls {totals['network.generate_epr_calls']}"
                        f" != epr_pairs {epr}")
    for name in bypass:
        if totals[name] != 0:
            problems.append(f"{name} is {totals[name]} on a workload that bypasses it")
    return problems


def median_metrics(per_pass: list[dict]) -> dict:
    """Per-metric median over passes; the low median keeps counts whole."""
    return {name: median_low(m[name] for m in per_pass) for name in per_pass[0]}
