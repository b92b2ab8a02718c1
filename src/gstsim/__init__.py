"""Graph-state distribution over quantum networks: simulator, planner, oracle.

``import gstsim`` loads no submodule.  Each public name below, and each
submodule, is imported on first access, so a user pays only for what they
use: planning and simulation never load ``gstsim.oracle`` (and numpy with
it), and ``from gstsim.topogen import tree_topology`` loads three modules.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines, in ``__all__`` order.
_EXPORTS = {
    "graphstate": ("GraphState",),
    "network": ("LocalityError", "NetworkState", "NetworkTopology",
                "load_topology", "verify_target"),
    "distribution": ("DistributionPlan", "DistributionRequest", "ExecutionError",
                     "RunReport", "Schedule", "build_resource_state", "center_root",
                     "distribute_via_resource", "epr_bound", "execute",
                     "make_schedule", "plan_shortest"),
    "edcg": ("EdcgPlan", "build_edcg_plan", "edcg_cost", "steiner_tree"),
    "flow": ("FlowInstance", "FlowResult", "decompose_flow", "max_flow",
             "minimize_completion_time"),
    "oracle": ("StateVector", "build_graph_state", "certification_report",
               "measure_pauli", "verify_graphical_rule", "verify_transfer_sequence"),
    "scenario": ("ScenarioConfig", "compare_scenario", "emit_report",
                 "optimize_scenario", "run_scenario"),
    "topogen": ("generate_topology",),
    "record": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if module == name else getattr(loaded, name)


def __dir__():
    return sorted(set(globals()).union(_EXPORTS, _HOME))
