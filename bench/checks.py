"""Correctness of one rung's output, judged without the program's planners.

Two gates.  For the seeds recorded in ``reference.json`` (the default seed and
one hold-out seed, taken at the commit that introduced the benchmark) the
report bytes must hash to the recorded SHA-256 and the exit code must match:
reports are meant to stay byte-identical.  For every seed, the report is also
recomputed where that is cheap and independent of the code under test: path
costs from the benchmark's own breadth-first search, the center root from
its own eccentricities, the closed-form bounds and the accounting identities
of every row.  Only the inputs (topology, targets) come from the program's
scenario resolution.
"""

from __future__ import annotations

import csv
import io
import json
from collections import deque

COLUMNS = ("algorithm", "n", "targets", "epr_pairs", "epr_bound", "timesteps",
           "classical_bits", "resource_qubits", "root", "strategy", "seed")


class Inputs:
    """The resolved topology and targets of one rung, as plain Python data."""

    def __init__(self, adjacency: dict, targets: list, seed: int):
        self.adj = adjacency
        self.targets = targets
        self.seed = seed
        self._dist: dict = {}

    def dist(self, src) -> dict:
        if src not in self._dist:
            dist = {src: 0}
            queue = deque([src])
            while queue:
                cur = queue.popleft()
                for nb in self.adj[cur]:
                    if nb not in dist:
                        dist[nb] = dist[cur] + 1
                        queue.append(nb)
            self._dist[src] = dist
        return self._dist[src]

    def reach(self, root) -> int:
        d = self.dist(root)
        return sum(d[t] for t in self.targets)

    def center(self):
        return min(self.adj, key=lambda v: (max(self.dist(v).values()), v))


def parse_report(data: bytes, fmt: str) -> list[dict]:
    """Report rows as column -> text, the way the CSV writer renders them."""
    text = data.decode()
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or tuple(rows[0]) != COLUMNS:
            raise ValueError(f"bad CSV header {rows[:1]!r}")
        return [dict(zip(COLUMNS, r)) for r in rows[1:]]
    rows = json.loads(text)
    if any(tuple(r) != COLUMNS for r in rows):
        raise ValueError("JSON rows do not carry the report columns in order")
    return [{c: "" if r[c] is None else str(r[c]) for c in COLUMNS} for r in rows]


def _epr_bound(n: int, s: int, free_root: bool) -> int:
    if free_root:
        return (3 * n * n - 2 * n) // 8 if n % 2 == 0 else (3 * n * n - 4 * n + 1) // 8
    return s * (2 * n - s - 1) // 2


def _expect(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: report has {got!r}, expected {want!r}")


def _check_row_common(problems, row, inp: Inputs, algorithm):
    _expect(problems, "algorithm", row["algorithm"], algorithm)
    _expect(problems, "n", row["n"], str(len(inp.adj)))
    _expect(problems, "targets", row["targets"], str(len(inp.targets)))
    _expect(problems, "seed", row["seed"], str(inp.seed))


def _check_gst_row(problems, row, inp: Inputs, root, strategy, bound):
    _check_row_common(problems, row, inp, "gst")
    _expect(problems, "gst root", row["root"], root)
    _expect(problems, "gst strategy", row["strategy"], strategy)
    _expect(problems, "gst epr_bound", row["epr_bound"], str(bound))
    epr = int(row["epr_pairs"])
    _expect(problems, "gst classical_bits", row["classical_bits"],
            str(2 * epr + 2 * len(inp.targets)))
    _expect(problems, "gst resource_qubits", row["resource_qubits"], "0")
    # Every transfer leaves the root over one of its links, one per link and
    # round, and each round completes at least one transfer.
    movers = len(inp.targets) - (root in inp.targets)
    floor = -(-movers // len(inp.adj[root]))
    if not floor <= int(row["timesteps"]) <= movers:
        problems.append(f"gst timesteps {row['timesteps']} outside [{floor}, {movers}]")


def _check_edcg_row(problems, row, inp: Inputs):
    _check_row_common(problems, row, inp, "edcg")
    m = len(inp.targets)
    epr = int(row["epr_pairs"])
    _expect(problems, "edcg epr_bound", row["epr_bound"], "")
    _expect(problems, "edcg strategy", row["strategy"], "modeled-cost")
    _expect(problems, "edcg timesteps", row["timesteps"], str(max(m - 1, 0)))
    _expect(problems, "edcg classical_bits", row["classical_bits"], str(2 * epr + m * (m - 1)))
    _expect(problems, "edcg resource_qubits", row["resource_qubits"], str(m * (m + 1) // 2))
    if row["root"] not in inp.targets:
        problems.append(f"edcg root {row['root']!r} is not a target")
    if epr < m * (m - 1) // 2:  # suffix k spans m - k + 1 terminals: >= m - k edges
        problems.append(f"edcg epr_pairs {epr} below the spanning-tree floor")


def check_report(verb: str, data: bytes, fmt: str, stdout: str, inp: Inputs) -> list[str]:
    """Problems found in one rung's report; an empty list means correct."""
    try:
        rows = parse_report(data, fmt)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"unreadable report: {exc}"]
    if len(rows) != 2:
        return [f"report has {len(rows)} rows, expected 2"]
    problems: list = []
    n, s = len(inp.adj), len(inp.targets)
    if verb == "run":
        center = inp.center()
        gst, edcg = rows
        _check_gst_row(problems, gst, inp, center, "shortest", _epr_bound(n, s, s == n))
        _expect(problems, "gst epr_pairs", gst["epr_pairs"], str(inp.reach(center)))
        _check_edcg_row(problems, edcg, inp)
    elif verb == "compare":
        gst, edcg = rows
        _check_edcg_row(problems, edcg, inp)
        root = edcg["root"]
        if root in inp.adj:
            _check_gst_row(problems, gst, inp, root, "shortest", _epr_bound(n, s, False))
            _expect(problems, "gst epr_pairs", gst["epr_pairs"], str(inp.reach(root)))
        if int(gst["epr_pairs"]) > int(edcg["epr_pairs"]):
            problems.append("gst uses more pairs than the cascade it is compared with")
    elif verb == "optimize":
        info = dict(part.split("=", 1) for part in stdout.split("\n", 1)[0].split())
        root, k, rounds = info.get("root"), int(info.get("k", 0)), info.get("rounds")
        flow, short = rows
        if root not in inp.adj:
            return problems + [f"optimize printed unknown root {root!r}"]
        bound = _epr_bound(n, s, False)
        _check_gst_row(problems, flow, inp, root, "flow", bound)
        _check_gst_row(problems, short, inp, root, "shortest", bound)
        _expect(problems, "flow timesteps", flow["timesteps"], rounds)
        _expect(problems, "shortest epr_pairs", short["epr_pairs"], str(inp.reach(root)))
        if int(flow["epr_pairs"]) < inp.reach(root):
            problems.append("flow plan uses fewer pairs than the shortest paths")
        movers = s - (root in inp.targets)
        floor = -(-movers // len(inp.adj[root]))
        if not max(floor, 1) <= k <= int(flow["timesteps"]):
            problems.append(f"k={k} against cut floor {floor} and rounds {flow['timesteps']}")
    else:
        problems.append(f"no check for verb {verb!r}")
    return problems
