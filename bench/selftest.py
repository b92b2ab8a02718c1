#!/usr/bin/env python3
"""Smoke test of the benchmark harness itself; takes well under a minute.

    python3 bench/selftest.py

For each workload it runs the smallest rung, untraced and traced, and checks
that every metric BENCHMARK.json names is printed with its unit, that the
run is correct, and that a corrupted reference digest turns into failed rung
calls instead of an aborted run.  Last, it checks that the benchmark refuses
to run, without printing a result, where there are no gstsim sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run_bench import BUILD, ROOT, load_reference, run
from workloads import WORKLOADS, build_rungs


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_metrics(out: dict, declared: list, label: str) -> None:
    metrics = out["result"]["metrics"]
    expect(sorted(metrics) == sorted(m["name"] for m in declared),
           f"{label}: metrics {sorted(metrics)}")
    for m in declared:
        unit = metrics[m["name"]]["unit"]
        expect(unit == m["unit"], f"{label}: {m['name']} has unit {unit}")
        expect(any(line.split()[:1] == [m["name"]] and line.split()[2:3] == [unit]
                   for line in out["lines"]), f"{label}: {m['name']} not printed with {unit}")
    expect(any(line.split()[:1] == ["failed_frac"] for line in out["lines"]),
           f"{label}: failed_frac not printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.py")
    for workload in WORKLOADS:
        plain = run(workload, 0, 0, trace=False, rung_limit=1)
        check_metrics(plain, spec["end_to_end"], f"{workload} untraced")
        expect(plain["result"]["correct"] and plain["result"]["failed"] == 0,
               f"{workload}: smallest rung failed: {plain['lines']}")

        traced = run(workload, 0, 0, trace=True, rung_limit=1)
        check_metrics(traced, spec["per_layer"], f"{workload} traced")
        expect(traced["result"]["correct"], f"{workload}: traced run failed: {traced['lines']}")

        reference = load_reference(workload, 0)
        expect(bool(reference), f"{workload}: no reference digests for seed 0")
        first = build_rungs(workload, 0)[0].name
        corrupted = dict(reference, **{first: {"sha256": "0" * 64, "exit": 0}})
        bad = run(workload, 0, 0, trace=False, reference=corrupted, rung_limit=1)
        result = bad["result"]
        expect(not result["correct"] and result["failed"] == result["attempted"] > 0,
               f"{workload}: corrupted digest gave {result}")
        print(f"{workload}: ok ({plain['lines'][0]})")

    bare = BUILD / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run_bench.py", "--workload", "dense-run", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"run without sources exited {proc.returncode}: {proc.stdout[-200:]}")
    print("no sources: refused with exit code", proc.returncode)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
