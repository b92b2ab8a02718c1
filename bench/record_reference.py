#!/usr/bin/env python3
"""Record the reference report digests that run_bench.py checks against.

    python3 bench/record_reference.py

Runs every workload's ladder once for the default seed (0) and the hold-out
seed (1) and writes each rung's report SHA-256 and exit code to
bench/reference.json.  It refuses to record a rung whose report fails the
independent checks.  Run it only at a commit whose reports are known good:
afterwards any byte change in those reports counts as a failed rung.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

from run_bench import BUILD, REFERENCE, Ladder, load_cli
from workloads import WORKLOADS, build_rungs

SEEDS = (0, 1)


def main() -> int:
    cli = load_cli()
    doc: dict = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            workdir = BUILD / f"reference-{workload}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                ladder = Ladder(cli, build_rungs(workload, seed), workdir, {})
                ladder.run_pass()
                if ladder.failures:
                    print("\n".join(ladder.failures), file=sys.stderr)
                    return 1
                doc.setdefault(workload, {})[str(seed)] = {
                    rung.name: {"sha256": hashlib.sha256(report.read_bytes()).hexdigest(),
                                "exit": 0}
                    for rung, (_, report) in zip(ladder.rungs, ladder.files)
                }
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"recorded {workload} seed {seed}")
    REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
