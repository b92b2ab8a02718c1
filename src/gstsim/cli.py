"""Command-line front end.

Verbs: gen-topo, run, optimize, compare, verify-oracle.  Exit codes:
0 success, 2 verification/assertion failure, 3 configuration error (a
malformed flag among them).
Scenario flags mirror the scenario JSON: argparse parses each straight
into its scenario key, so a command line with several malformed flags
reports the first in argv order.  They reach ``ScenarioConfig.from_dict``
as defaults, which checks the document and lets a --scenario file's values
take precedence over flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .distribution import ExecutionError
from .network import decode_json, topology_to_dict
from .scenario import (
    REPORT_FORMATS,
    STRATEGIES,
    ScenarioConfig,
    compare_scenario,
    emit_report,
    load_scenario,
    optimize_scenario,
    resolve_topology,
    run_scenario,
)
from .topogen import BUILDERS

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_CONFIG = 3
MESSAGE_LIMIT = 300  # characters; a longer error message is cut to this


def _topology_flag(text: str):
    """--topology: inline JSON when it starts with "{", else a file path."""
    if not text.lstrip().startswith("{"):
        return text
    try:
        return decode_json(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid JSON: {exc}") from None


def _targets_flag(text: str):
    return "all" if text == "all" else text.split(",")


def _edges_flag(text: str):
    """--edges: a named shape, or gnp:<p> as {"gnp": p}."""
    if not text.startswith("gnp:"):
        return text
    p = text.split(":", 1)[1]
    try:
        return {"gnp": float(p)}
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid edge probability {p!r}") from None


def _scenario_from_args(args) -> ScenarioConfig:
    flags = {key: val for key in ScenarioConfig._fields
             if (val := getattr(args, key, None)) is not None}
    cfg = (ScenarioConfig.from_dict(flags) if args.scenario is None
           else load_scenario(args.scenario, flags))
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
    sub.add_argument("--topology", type=_topology_flag,
                     help="topology JSON file or inline generator spec")
    sub.add_argument("--targets", type=_targets_flag,
                     help="'all' or comma-separated node ids")
    sub.add_argument("--edges", type=_edges_flag, dest="target_edges", metavar="EDGES",
                     help="complete|path|cycle|empty|gnp:<p>")
    sub.add_argument("--root", help="center | fixed:<id> | optimize")
    if with_strategy:
        sub.add_argument("--strategy", choices=STRATEGIES)
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
    gen.add_argument("--kind", required=True, choices=tuple(BUILDERS))
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
    """Write ``{"kind": --kind, <the size flags given>}`` as resolved by
    ``resolve_topology``, the scenario's reader, so gnp draws with --seed."""
    spec = {key: val for key in ("kind", "n", "height", "rows", "cols", "p")
            if (val := getattr(args, key)) is not None}
    topo = resolve_topology(spec, args.seed)
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
    ok = report.pop("ok")
    for key, (passed, total) in report.items():
        status = "ok" if passed == total else "FAIL"
        print(f"{key}: {passed}/{total} {status}")
    if not ok:
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
        code, message = EXIT_VERIFY, f"verification failure: {exc}"
    except (ValueError, OSError, TypeError) as exc:
        code, message = EXIT_CONFIG, f"configuration error: {exc}"
    if len(message) > MESSAGE_LIMIT:  # it may echo a value of any size
        message = message[:MESSAGE_LIMIT - 3] + "..."
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
