"""Command-line front end.

Verbs: gen-topo, run, optimize, compare, verify-oracle.  Exit codes:
0 success, 2 verification/assertion failure, 3 configuration error (a
malformed flag among them).
Scenario flags mirror the scenario JSON.  They reach
``ScenarioConfig.from_dict`` as defaults, which checks the document and lets
a --scenario file's values take precedence over flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .distribution import ExecutionError
from .network import topology_to_dict
from .scenario import (
    REPORT_FORMATS,
    ScenarioConfig,
    compare_scenario,
    emit_report,
    load_scenario,
    optimize_scenario,
    run_scenario,
)
from .topogen import generate_topology

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_CONFIG = 3


def _scenario_from_args(args) -> ScenarioConfig:
    flags = {}
    if args.topology is not None:
        if args.topology.lstrip().startswith("{"):
            try:
                flags["topology"] = json.loads(args.topology)
            except ValueError as exc:
                raise ValueError(f"argument --topology: invalid JSON: {exc}") from None
        else:
            flags["topology"] = args.topology
    if args.targets is not None:
        flags["targets"] = "all" if args.targets == "all" else args.targets.split(",")
    if args.edges is not None:
        if args.edges.startswith("gnp:"):
            p = args.edges.split(":", 1)[1]
            try:
                flags["target_edges"] = {"gnp": float(p)}
            except ValueError:
                raise ValueError(f"argument --edges: invalid edge probability {p!r}") from None
        else:
            flags["target_edges"] = args.edges
    if args.root is not None:
        flags["root"] = args.root
    if getattr(args, "strategy", None) is not None:
        flags["strategy"] = args.strategy
    if args.seed is not None:
        flags["seed"] = args.seed
    if args.scenario is not None:
        cfg = load_scenario(args.scenario, flags)
    else:
        cfg = ScenarioConfig.from_dict(flags)
    if args.out is not None and "path" not in cfg.output:
        cfg.output["path"] = args.out
    if args.format is not None and "format" not in cfg.output:
        cfg.output["format"] = args.format
    return cfg


def _emit(rows, cfg: ScenarioConfig) -> None:
    fmt = cfg.output.get("format", "csv")
    path = cfg.output.get("path")
    text = emit_report(rows, fmt, path)
    if path is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {len(rows)} rows to {path}")


def _add_scenario_flags(sub, with_strategy: bool = True) -> None:
    sub.add_argument("--scenario", help="scenario JSON file (overrides flags)")
    sub.add_argument("--topology", help="topology JSON file or inline generator spec")
    sub.add_argument("--targets", help="'all' or comma-separated node ids")
    sub.add_argument("--edges", help="complete|path|cycle|empty|gnp:<p>")
    sub.add_argument("--root", help="center | fixed:<id> | optimize")
    if with_strategy:
        sub.add_argument("--strategy", choices=["shortest", "flow"])
    sub.add_argument("--seed", type=int)
    sub.add_argument("--out", help="report output path")
    sub.add_argument("--format", choices=REPORT_FORMATS)


class _Parser(argparse.ArgumentParser):
    """Raises argparse's message as a ValueError, a configuration error,
    where argparse would exit 2; its subparsers share the class."""

    def error(self, message):
        raise ValueError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves no state on it."""
    parser = _Parser(
        prog="gstsim",
        description="Plan, simulate and cost graph-state distribution over networks.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    gen = subs.add_parser("gen-topo", help="write a generated topology as JSON")
    gen.add_argument("--kind", required=True, choices=["line", "tree", "grid", "gnp"])
    gen.add_argument("--n", type=int)
    gen.add_argument("--height", type=int)
    gen.add_argument("--rows", type=int)
    gen.add_argument("--cols", type=int)
    gen.add_argument("--p", type=float)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="output path (stdout when omitted)")

    run = subs.add_parser("run", help="execute a scenario; emit GST + EDCG rows")
    _add_scenario_flags(run)

    opt = subs.add_parser("optimize", help="minimize completion time over roots")
    _add_scenario_flags(opt, with_strategy=False)

    cmp_ = subs.add_parser("compare", help="dominance comparison (assertions on)")
    _add_scenario_flags(cmp_, with_strategy=False)

    ver = subs.add_parser("verify-oracle", help="run the state-vector certification")
    ver.add_argument("--samples", type=int, default=20,
                     help="random 5-vertex graphs to sweep (default 20)")
    ver.add_argument("--seed", type=int, default=7)
    return parser


def _gen_topo(args) -> int:
    params = {}
    for key in ("n", "height", "rows", "cols", "p"):
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    if args.kind == "gnp":
        params["seed"] = args.seed
    topo = generate_topology(args.kind, **params)
    text = json.dumps(topology_to_dict(topo), indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {len(topo)} nodes, {len(topo.links)} links to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _verify_oracle(args) -> int:
    from .oracle import certification_report  # the only verb that needs numpy

    report = certification_report(args.samples, args.seed)
    for key in ("rules_exhaustive_small", "rules_random_five",
                "teleport_projections", "transfer_sequence"):
        passed, total = report[key]
        status = "ok" if passed == total else "FAIL"
        print(f"{key}: {passed}/{total} {status}")
    if not report["ok"]:
        print("oracle certification FAILED")
        return EXIT_VERIFY
    print("oracle certification passed")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.verb == "gen-topo":
            return _gen_topo(args)
        if args.verb == "verify-oracle":
            return _verify_oracle(args)
        cfg = _scenario_from_args(args)
        if args.verb == "optimize":
            info, rows = optimize_scenario(cfg)
            print(f"root={info['root']} k={info['k']} rounds={info['rounds']}")
        else:
            rows = (run_scenario if args.verb == "run" else compare_scenario)(cfg)
        _emit(rows, cfg)
        return EXIT_OK
    except (ExecutionError, AssertionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
