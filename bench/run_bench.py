#!/usr/bin/env python3
"""Layered benchmark of the `gstsim` command line.

    python3 bench/run_bench.py --workload dense-run --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and drives the checkout's own
``src/gstsim`` in-process through ``gstsim.cli.main([...])``, one closed-loop
client: each rung of the workload's ladder (see workloads.py) starts only
after the previous report is written.  Ladder passes repeat until
``--seconds`` have been measured; every figure is the median over passes.

``--trace 0`` prints the end-to-end metrics:
  wall_s       seconds to produce every report of the ladder
  rung_max_s   seconds for the slowest rung
  setup_s      seconds for a fresh interpreter to ``import gstsim.cli``
               (median over fresh processes, one before each pass)
  peak_rss_mb  peak resident memory of this process
``--trace 1`` spends half the time untraced and half traced (spans.py) and
prints the per-layer metrics, after checking the traced self-check identities.

Every rung's exit code and report are checked (checks.py); a rung that
raises, exits non-zero or writes a wrong report counts as failed, and the
run carries on.  Human-readable lines come first; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files and the kept spans go under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checks
import spans
from workloads import WORKLOADS, build_rungs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

MIN_PASSES = 3
MIN_SETUP_SAMPLES = 7

END_TO_END_UNITS = {"wall_s": "s", "rung_max_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_cli():
    """Import the checkout's gstsim, refusing any other copy on the path."""
    package = SRC / "gstsim"
    if not (package / "cli.py").is_file():
        sys.exit(f"run_bench: no gstsim sources at {package}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gstsim.cli
    if Path(gstsim.cli.__file__).resolve().parent != package:
        sys.exit(f"run_bench: imported gstsim from {gstsim.cli.__file__}, not {package}")
    return gstsim.cli


def import_seconds() -> float:
    """Seconds a fresh interpreter spends importing gstsim.cli."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
             "t = time.perf_counter(); import gstsim.cli; "
             "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", probe, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.split()[-1])


class Ladder:
    """One workload's rungs for one seed, their scenario files and their checks."""

    def __init__(self, cli, rungs: list, workdir: Path, reference: dict):
        from gstsim.scenario import ScenarioConfig, resolve

        self.cli = cli
        self.rungs = rungs
        self.reference = reference          # rung name -> {"sha256", "exit"}, may be empty
        self.files = []                     # (scenario path, report path) per rung
        self.inputs = []                    # checks.Inputs per rung
        self.verdicts: dict = {}            # (rung index, digest, stdout) -> problems
        self.failures: list = []            # one line per failed rung execution
        self.attempted = 0
        for i, rung in enumerate(self.rungs):
            scenario_path = workdir / f"{i:02d}-{rung.name}.scenario.json"
            report_path = workdir / f"{i:02d}-{rung.name}.{rung.fmt}"
            doc = dict(rung.scenario, output={"path": str(report_path), "format": rung.fmt})
            scenario_path.write_text(json.dumps(doc, indent=2) + "\n")
            self.files.append((scenario_path, report_path))
            scn = resolve(ScenarioConfig.from_dict(dict(rung.scenario)))
            topo = scn.topology
            adjacency = {v: tuple(topo.neighbors(v)) for v in topo.nodes}
            self.inputs.append(checks.Inputs(adjacency, list(scn.targets), rung.scenario["seed"]))

    def call(self, i: int, tracer=None) -> float:
        """Run rung i once through the CLI; returns its seconds, records failures."""
        rung = self.rungs[i]
        scenario_path, report_path = self.files[i]
        report_path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        error, code = None, None
        if tracer is not None:
            tracer.request = rung.name
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main([rung.verb, "--scenario", str(scenario_path)])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a rung may crash; the ladder must go on
                error = type(exc).__name__
            seconds = time.perf_counter() - start
        self.attempted += 1
        problems = self._judge(i, code, error, report_path, out.getvalue(), err.getvalue())
        if problems:
            self.failures.append(f"{rung.name}: {'; '.join(problems)}")
        return seconds

    def _judge(self, i, code, error, report_path, stdout, stderr) -> list:
        if error is not None:
            return [f"raised {error}"]
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-200:]}"]
        if not report_path.is_file():
            return ["no report written"]
        data = report_path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        key = (i, digest, stdout)
        if key not in self.verdicts:
            self.verdicts[key] = self._verdict(i, data, digest, stdout)
        return self.verdicts[key]

    def _verdict(self, i, data, digest, stdout) -> list:
        rung = self.rungs[i]
        problems = []
        ref = self.reference.get(rung.name)
        if ref is not None and (ref["sha256"], ref["exit"]) != (digest, 0):
            problems.append(f"report digest {digest[:12]} differs from reference "
                            f"{ref['sha256'][:12]}")
        if len({d for (j, d, _) in self.verdicts if j == i} | {digest}) > 1:
            problems.append("report bytes differ from an earlier pass")
        try:
            problems += checks.check_report(rung.verb, data, rung.fmt, stdout, self.inputs[i])
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"report check failed: {exc!r}")
        return problems

    def run_pass(self, tracer=None) -> list[float]:
        gc.collect()
        return [self.call(i, tracer) for i in range(len(self.rungs))]


def run_passes(ladder: Ladder, seconds: float, traced: bool,
               setup_samples: list | None = None) -> tuple[list, list]:
    """Repeat ladder passes for `seconds`; returns per-pass rung times and tracers.

    With `setup_samples`, one fresh-interpreter import is timed before each
    pass, so set-up time is sampled over the same stretch as the ladder.
    """
    times, tracers = [], []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        if setup_samples is not None:
            setup_samples.append(import_seconds())
        tracer = None
        if traced:
            tracer = spans.Tracer()
            tracer.install()
        try:
            times.append(ladder.run_pass(tracer))
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracers.append(tracer)
    return times, tracers


def load_reference(workload: str, seed: int) -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed), {})


def write_spans(path: Path, tracers: list) -> None:
    """Write the kept spans of every traced pass, once, at the end."""
    doc = []
    for n, tracer in enumerate(tracers):
        for index, (name, parent, start, end, request) in enumerate(tracer.spans):
            doc.append({"pass": n, "id": index, "parent": parent, "name": name,
                        "rung": request, "start": start, "end": end})
    path.write_text(json.dumps(doc) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool, reference=None,
        rung_limit=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    cli = load_cli()
    if reference is None:
        reference = load_reference(workload, seed)
    workdir = BUILD / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ladder = Ladder(cli, build_rungs(workload, seed)[:rung_limit], workdir, reference)
        lines = [f"workload {workload} seed {seed}: {len(ladder.rungs)} rungs "
                 f"({', '.join(r.name for r in ladder.rungs)})"]
        correct = True
        if not trace:
            setup = []
            times, _ = run_passes(ladder, seconds, traced=False, setup_samples=setup)
            while len(setup) < MIN_SETUP_SAMPLES:
                setup.append(import_seconds())
            metrics = {
                "wall_s": median(sum(p) for p in times),
                "rung_max_s": median(max(p) for p in times),
                "setup_s": median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            per_rung = [median(p[i] for p in times) for i in range(len(ladder.rungs))]
            lines.append(f"{len(times)} passes; median seconds per rung: " + ", ".join(
                f"{r.name} {t:.3f}" for r, t in zip(ladder.rungs, per_rung)))
        else:
            plain, _ = run_passes(ladder, seconds / 2, traced=False)
            traced, tracers = run_passes(ladder, seconds / 2, traced=True)
            per_pass = [t.metrics() for t in tracers]
            metrics = spans.median_metrics(per_pass)
            metrics["trace.overhead_s"] = (median(sum(p) for p in traced)
                                           - median(sum(p) for p in plain))
            units = dict(spans.PER_LAYER)
            totals = {name: sum(m[name] for m in per_pass) for name in per_pass[0]}
            problems = spans.self_check_problems(totals, WORKLOADS[workload]["bypass"])
            lines += [f"not traced, absent from the program: {m}" for m in tracers[0].missing]
            lines += [f"SELF-CHECK FAILED: {p}" for p in problems]
            correct = not problems
            wall = median(sum(p) for p in traced)
            shares = {name: median(t.total(name) for t in tracers) / wall
                      for name in spans.HEADLINE_SPANS}
            lines.append(f"{len(plain)} untraced + {len(traced)} traced passes; "
                         "share of traced wall: " +
                         ", ".join(f"{k} {v:.0%}" for k, v in shares.items()))
            write_spans(BUILD / f"spans-{workload}-{seed}.json", tracers)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = ladder.attempted, len(ladder.failures)
    correct = correct and failed == 0
    for name, value in metrics.items():
        lines.append(f"  {name:<30} {value:.6g} {units[name]}")
    lines.append(f"  {'failed_frac':<30} {failed / attempted:.6g} fraction "
                 f"({failed} of {attempted} rung calls)")
    lines += [f"FAILED {f}" for f in ladder.failures[:20]]
    return {
        "lines": lines,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
