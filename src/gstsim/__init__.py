"""Graph-state distribution over quantum networks: simulator, planner, oracle.

``gstsim.oracle`` (and numpy with it) is imported on first access to one of
its names below, so planning and simulation never pay for it.
"""

import importlib

from .graphstate import GraphState
from .network import (
    LocalityError,
    NetworkState,
    NetworkTopology,
    load_topology,
    verify_target,
)
from .distribution import (
    DistributionPlan,
    DistributionRequest,
    ExecutionError,
    RunReport,
    Schedule,
    build_resource_state,
    center_root,
    distribute_via_resource,
    epr_bound,
    execute,
    make_schedule,
    plan_shortest,
)
from .edcg import EdcgPlan, build_edcg_plan, edcg_cost, edcg_order, steiner_tree
from .flow import (
    FlowInstance,
    FlowResult,
    decompose_flow,
    max_flow,
    min_saturating_k,
    minimize_completion_time,
)
from .scenario import (
    ScenarioConfig,
    compare_scenario,
    emit_report,
    optimize_scenario,
    run_scenario,
)
from .topogen import generate_topology

# Loaded on first access, by __getattr__ below.
_ORACLE_NAMES = (
    "StateVector",
    "build_graph_state",
    "certification_report",
    "measure_pauli",
    "verify_graphical_rule",
    "verify_teleport_transfer",
    "verify_transfer_sequence",
)

__all__ = [
    "GraphState",
    "LocalityError",
    "NetworkState",
    "NetworkTopology",
    "load_topology",
    "verify_target",
    "DistributionPlan",
    "DistributionRequest",
    "ExecutionError",
    "RunReport",
    "Schedule",
    "build_resource_state",
    "center_root",
    "distribute_via_resource",
    "epr_bound",
    "execute",
    "make_schedule",
    "plan_shortest",
    "EdcgPlan",
    "build_edcg_plan",
    "edcg_cost",
    "edcg_order",
    "steiner_tree",
    "FlowInstance",
    "FlowResult",
    "decompose_flow",
    "max_flow",
    "min_saturating_k",
    "minimize_completion_time",
    *_ORACLE_NAMES,
    "ScenarioConfig",
    "compare_scenario",
    "emit_report",
    "optimize_scenario",
    "run_scenario",
    "generate_topology",
    "__version__",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()).union(_ORACLE_NAMES, {"oracle"}))
