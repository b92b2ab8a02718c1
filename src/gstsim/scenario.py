"""Scenario configs, end-to-end runs, and deterministic report emission.

A scenario bundles a topology (inline generator spec or file reference),
the target nodes S, the wanted entanglement graph over them, a root policy
and a path strategy.  Everything downstream of the seed is deterministic,
so identical configs produce byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import json
import random
from itertools import combinations

from .distribution import (
    DistributionRequest,
    RunReport,
    center_root,
    epr_bound,
    execute,
    make_schedule,
    plan_shortest,
    warn_if_rounds_exceed,
)
from .edcg import EDCG_MODES, edcg_cost
from .flow import minimize_completion_time
from .graphstate import GraphState, edge_key
from .network import (
    NetworkState,
    NetworkTopology,
    NodeId,
    check_node_ids,
    check_node_pairs,
    load_topology,
)
from .record import Record
from .topogen import generate_topology

REPORT_FORMATS = ("csv", "json")  # what emit_report writes
OUTPUT_KEYS = ("path", "format")  # of a scenario's output entry
STRATEGIES = ("shortest", "flow")  # how a GST leg routes (`_gst_leg`)
REPORT_COLUMNS = (
    "algorithm", "n", "targets", "epr_pairs", "epr_bound", "timesteps",
    "classical_bits", "resource_qubits", "root", "strategy", "seed",
)


class ScenarioConfig(Record):
    _fields = ("topology", "targets", "target_edges", "root", "strategy",
               "edcg_mode", "seed", "output")

    def __init__(self, topology: object, targets: object = "all",
                 target_edges: object = "complete", root: str = "center",
                 strategy: str = "shortest", edcg_mode: str = "peel", seed: int = 0,
                 output: dict | None = None):
        self.topology = topology          # path string or {"kind": ..., **params}
        self.targets = targets            # "all" | list of node ids | {"random": k}
        self.target_edges = target_edges  # named shape | {"gnp": p} | explicit pair list
        self.root = root                  # "center" | "fixed:<id>" | "optimize"
        self.strategy = strategy          # "shortest" | "flow"
        self.edcg_mode = edcg_mode
        self.seed = seed
        # {"path": ..., "format": "csv"|"json"}; a fresh dict per config
        self.output = {} if output is None else output

    @classmethod
    def from_dict(cls, data: dict, defaults: dict | None = None) -> "ScenarioConfig":
        """The one check of a scenario document.  Its keys win over
        ``defaults`` (the CLI's flags); the merged keys must be known, name
        a topology, and give an ``output`` that ``emit_report`` can write."""
        if not isinstance(data, dict):
            raise ValueError("scenario file must hold a JSON object")
        data = {**(defaults or {}), **data}
        extra = set(data) - set(cls._fields)
        if extra:
            raise ValueError(f"unknown scenario keys: {sorted(extra)}")
        if "topology" not in data:
            raise ValueError("scenario needs a 'topology' entry")
        out = data.get("output", {})
        if not isinstance(out, dict):
            raise ValueError(f"scenario output must be an object, not {out!r}")
        extra = set(out) - set(OUTPUT_KEYS)
        if extra:
            raise ValueError(f"unknown scenario output keys: {sorted(extra)}")
        for key in OUTPUT_KEYS:
            if key in out and not isinstance(out[key], str):
                raise ValueError(f"scenario output {key} must be a string, not {out[key]!r}")
        if out.get("format", "csv") not in REPORT_FORMATS:
            raise ValueError(f"unknown report format {out['format']!r}")
        return cls(**data)


def load_scenario(path: str, defaults: dict | None = None) -> ScenarioConfig:
    """Read a scenario file and check it with ``ScenarioConfig.from_dict``."""
    with open(path) as fh:
        return ScenarioConfig.from_dict(json.load(fh), defaults)


def _resolve_topology(spec, seed: int) -> NetworkTopology:
    if isinstance(spec, str):
        return load_topology(spec)
    if isinstance(spec, dict):
        params = {k: v for k, v in spec.items() if k != "kind"}
        if spec.get("kind") == "gnp":
            params.setdefault("seed", seed)
        return generate_topology(spec.get("kind", ""), **params)
    raise ValueError("topology must be a file path or a generator spec")


def _resolve_targets(spec, topology: NetworkTopology, rng: random.Random) -> list:
    nodes = list(topology.nodes)
    if spec == "all":
        return nodes
    if isinstance(spec, dict) and set(spec) == {"random"}:
        k = spec["random"]
        if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= len(nodes):
            raise ValueError(
                f"random target count must be an integer in [1, {len(nodes)}], not {k!r}"
            )
        return sorted(rng.sample(nodes, k))
    if isinstance(spec, list):
        if not spec:
            raise ValueError("target list is empty: name at least one target node")
        check_node_ids(spec, "targets")
        known = set(nodes)
        missing = [t for t in spec if t not in known]
        if missing:
            raise ValueError(f"targets not in topology: {missing}")
        if len(set(spec)) != len(spec):
            raise ValueError("duplicate targets")
        return sorted(spec)
    raise ValueError(f"bad targets spec: {spec!r}")


def _resolve_target_graph(spec, targets: list, rng: random.Random) -> GraphState:
    ts = sorted(targets)
    if isinstance(spec, str):
        if spec == "complete":
            edges = list(combinations(ts, 2))
        elif spec == "path":
            edges = list(zip(ts, ts[1:]))
        elif spec == "cycle":
            edges = list(zip(ts, ts[1:]))
            if len(ts) >= 3:
                edges.append((ts[-1], ts[0]))
        elif spec == "empty":
            edges = []
        else:
            raise ValueError(f"unknown target_edges shape {spec!r}")
    elif isinstance(spec, dict) and set(spec) == {"gnp"}:
        p = spec["gnp"]
        if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0 <= p <= 1:
            raise ValueError("edge probability must lie in [0, 1]")
        edges = [e for e in combinations(ts, 2) if rng.random() < p]
    elif isinstance(spec, list):
        edges = check_node_pairs(spec, "target_edges")
        known = set(ts)
        seen = set()
        for u, v in edges:
            if u not in known or v not in known:
                raise ValueError(f"target edge ({u!r}, {v!r}) leaves the target set")
            key = edge_key(u, v)
            if key in seen:  # two CZs on one pair cancel: which graph is meant?
                raise ValueError(f"repeated target edge ({u!r}, {v!r})")
            seen.add(key)
    else:
        raise ValueError(f"bad target_edges spec: {spec!r}")
    return GraphState(ts, edges)


class ResolvedScenario(Record):
    _fields = ("config", "topology", "targets", "target_graph")

    def __init__(self, config: ScenarioConfig, topology: NetworkTopology, targets: list,
                 target_graph: GraphState):
        self.config = config
        self.topology = topology
        self.targets = targets
        self.target_graph = target_graph

    @property
    def request(self) -> DistributionRequest:
        return DistributionRequest(self.target_graph, {t: t for t in self.targets})


def resolve(config: ScenarioConfig) -> ResolvedScenario:
    if isinstance(config.seed, bool) or not isinstance(config.seed, int):
        raise ValueError(f"scenario seed must be an integer, not {config.seed!r}")
    rng = random.Random(config.seed)
    topology = _resolve_topology(config.topology, config.seed)
    targets = _resolve_targets(config.targets, topology, rng)
    graph = _resolve_target_graph(config.target_edges, targets, rng)
    if config.edcg_mode not in EDCG_MODES:
        raise ValueError(f"unknown ordering mode {config.edcg_mode!r}")
    if config.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {config.strategy!r}")
    policy = config.root
    if isinstance(policy, str) and policy.startswith("fixed:"):
        root = policy.split(":", 1)[1]
        if root not in topology.nodes:
            raise ValueError(f"fixed root {root!r} is not a topology node")
    elif policy not in ("center", "optimize"):
        raise ValueError(f"unknown root policy {policy!r}")
    return ResolvedScenario(config, topology, targets, graph)


def _row(scn: ResolvedScenario, algorithm: str, cost, bound: int | None,
         root: NodeId, strategy: str) -> dict:
    """One report row; ``cost`` is a GST ``RunReport`` or an ``EdcgCost``."""
    return {
        "algorithm": algorithm,
        "n": len(scn.topology),
        "targets": len(scn.targets),
        "epr_pairs": cost.epr_pairs,
        "epr_bound": bound,
        "timesteps": cost.timesteps,
        "classical_bits": cost.classical_bits,
        "resource_qubits": cost.resource_qubits,
        "root": root,
        "strategy": strategy,
        "seed": scn.config.seed,
    }


def _edcg_row(scn: ResolvedScenario) -> dict:
    plan, cost = edcg_cost(scn.topology, scn.targets, scn.config.edcg_mode)
    return _row(scn, "edcg", cost, None, plan.order[-1], "modeled-cost")


def _gst_leg(scn: ResolvedScenario, strategy: str, root: NodeId | None = None,
             free_root: bool = False) -> tuple[dict, RunReport, int | None]:
    """Plan, schedule and execute one GST leg; returns (row, report, k).

    "shortest" routes along shortest paths from ``root``.  "flow" routes
    the saturating flow from ``root``, or from the root of least completion
    time when ``root`` is None; k is its per-link budget (None for shortest
    paths), checked against the schedule's rounds.  Every leg runs on a
    fresh network state, and a shortest-path leg must stay within the EPR
    bound (``free_root``: the bound for a most-central root).
    """
    if strategy == "shortest":
        plan, k = plan_shortest(scn.topology, scn.targets, root), None
    else:
        root, k, plan = minimize_completion_time(
            scn.topology, scn.targets, None if root is None else [root])
    schedule = make_schedule(plan)
    if k is not None:
        warn_if_rounds_exceed(schedule, k)
    report = execute(NetworkState(scn.topology), scn.request, plan, schedule)
    bound = epr_bound(len(scn.topology), len(scn.targets), free_root=free_root)
    if strategy == "shortest" and report.epr_pairs > bound:
        raise AssertionError(
            f"shortest-path run used {report.epr_pairs} pairs, above bound {bound}"
        )
    return _row(scn, "gst", report, bound, root, strategy), report, k


def run_scenario(config: ScenarioConfig) -> list[dict]:
    """The standard report: one executed GST row plus the EDCG cost row.

    The GST leg follows the root policy and strategy; an optimized root is
    always planned by flow.
    """
    scn = resolve(config)
    policy, strategy, root = config.root, config.strategy, None
    if policy == "optimize":
        strategy = "flow"
    elif policy == "center":
        root = center_root(scn.topology)
    else:  # "fixed:<id>", checked by resolve
        root = policy.split(":", 1)[1]
    free_root = (strategy == "shortest" and policy == "center"
                 and len(scn.targets) == len(scn.topology))
    gst_row, _, _ = _gst_leg(scn, strategy, root, free_root)
    return [gst_row, _edcg_row(scn)]


def compare_scenario(config: ScenarioConfig) -> list[dict]:
    """Head-to-head rows with the dominance guarantees asserted.

    The GST leg is rooted at the EDCG cascade's anchor s_m and routed along
    shortest paths — the configuration under which GST provably never needs
    more pairs than the cascade — so dominance, like the leg's EPR bound,
    is a hard error, not an observation.
    """
    scn = resolve(config)
    edcg_row = _edcg_row(scn)
    gst_row, report, _ = _gst_leg(scn, "shortest", edcg_row["root"])
    if report.epr_pairs > edcg_row["epr_pairs"]:
        raise AssertionError(
            f"GST used {report.epr_pairs} pairs, above the cascade's "
            f"{edcg_row['epr_pairs']}"
        )
    return [gst_row, edcg_row]


def optimize_scenario(config: ScenarioConfig) -> tuple[dict, list[dict]]:
    """Best completion-time root: flow row plus the same-root shortest row."""
    scn = resolve(config)
    flow_row, flow_report, k = _gst_leg(scn, "flow")
    root = flow_row["root"]
    short_row, _, _ = _gst_leg(scn, "shortest", root)
    info = {"root": root, "k": k, "rounds": flow_report.timesteps}
    return info, [flow_row, short_row]


def emit_report(rows: list[dict], fmt: str = "csv", path: str | None = None) -> str:
    """Serialize rows in the fixed column order; identical input, identical bytes.

    Writes them to ``path`` too when it is given.  It must be a string: an
    integer would be opened as a file descriptor, written and closed.
    """
    if path is not None and not isinstance(path, str):
        raise ValueError(f"report path must be a string, not {path!r}")
    for row in rows:
        missing = set(REPORT_COLUMNS) - set(row)
        if missing:
            raise ValueError(f"report row missing columns: {sorted(missing)}")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            writer.writerow(
                "" if row[c] is None else row[c] for c in REPORT_COLUMNS
            )
        text = buf.getvalue()
    elif fmt == "json":
        text = json.dumps(
            [{c: row[c] for c in REPORT_COLUMNS} for row in rows], indent=2
        ) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
