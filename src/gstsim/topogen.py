"""Seeded topology generators: line, full binary tree, grid, random G(n, p)."""

from __future__ import annotations

import random

from .network import SIZE_LIMIT, NetworkTopology, check_size

GNP_RETRY_BUDGET = 500


def _require_int(name: str, value) -> None:
    """Sizes and seeds are JSON integers: a bool, string or float is a spec error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"topology parameter {name!r} must be an integer, not {value!r}")


def _name(i: int, count: int) -> str:
    width = max(2, len(str(count - 1)))
    return f"n{i:0{width}d}"


def line_topology(n: int) -> NetworkTopology:
    _require_int("n", n)
    if n < 1:
        raise ValueError("line needs at least one node")
    check_size(n, "nodes")
    nodes = [_name(i, n) for i in range(n)]
    links = list(zip(nodes, nodes[1:]))
    return NetworkTopology(nodes, links)


def tree_topology(height: int) -> NetworkTopology:
    """Full binary tree of the given height, named in level order."""
    _require_int("height", height)
    if height < 0:
        raise ValueError("height must be >= 0")
    count = 2 ** (height + 1) - 1 if height < 64 else float("inf")
    check_size(count, "nodes")
    nodes = [_name(i, count) for i in range(count)]
    links = []
    for i in range(count):
        for child in (2 * i + 1, 2 * i + 2):
            if child < count:
                links.append((nodes[i], nodes[child]))
    return NetworkTopology(nodes, links)


def grid_topology(rows: int, cols: int) -> NetworkTopology:
    _require_int("rows", rows)
    _require_int("cols", cols)
    if rows < 1 or cols < 1:
        raise ValueError("grid needs positive dimensions")
    check_size(rows * cols, "nodes")
    check_size(rows * (cols - 1) + cols * (rows - 1), "links")
    nodes = [f"r{r:02d}c{c:02d}" for r in range(rows) for c in range(cols)]
    links = []
    for i, name in enumerate(nodes):  # row-major: cell i + 1 is right, i + cols below
        if (i + 1) % cols:
            links.append((name, nodes[i + 1]))
        if i + cols < len(nodes):
            links.append((name, nodes[i + cols]))
    return NetworkTopology(nodes, links)


def gnp_topology(n: int, p: float, seed: int) -> NetworkTopology:
    """Connected Erdos-Renyi sample; retries fresh draws until connected.

    Each draw makes n(n - 1)/2 link draws, so the retries stay within the
    size budget as one draw does: at most ``GNP_RETRY_BUDGET`` draws, and
    at most ``SIZE_LIMIT`` link draws in all (but always one draw).
    """
    _require_int("n", n)
    _require_int("seed", seed)
    if n < 1:
        raise ValueError("gnp needs at least one node")
    if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    pairs = n * (n - 1) // 2
    check_size(pairs, "link draws")  # at least n from n = 3 on
    draws = min(GNP_RETRY_BUDGET, SIZE_LIMIT // max(pairs, 1))
    rng = random.Random(seed)
    nodes = [_name(i, n) for i in range(n)]
    for _ in range(draws):
        links = [
            (nodes[i], nodes[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        try:
            return NetworkTopology(nodes, links)
        except ValueError:
            continue
    raise ValueError(
        f"no connected G({n}, {p}) draw in {draws} attempt(s); raise p"
    )


# kind -> (generator, its parameters); `gen-topo --kind` offers these kinds
BUILDERS = {
    "line": (line_topology, ("n",)),
    "tree": (tree_topology, ("height",)),
    "grid": (grid_topology, ("rows", "cols")),
    "gnp": (gnp_topology, ("n", "p", "seed")),
}


def generate_topology(kind: str, **params) -> NetworkTopology:
    """Dispatch on kind: line(n) | tree(height) | grid(rows, cols) | gnp(n, p, seed)."""
    if not isinstance(kind, str) or kind not in BUILDERS:
        raise ValueError(f"unknown topology kind {kind!r}")
    fn, keys = BUILDERS[kind]
    missing = [k for k in keys if k not in params]
    extra = [k for k in params if k not in keys]
    if missing or extra:
        raise ValueError(
            f"topology kind {kind!r} takes {keys}; missing {missing}, extra {extra}"
        )
    return fn(**{k: params[k] for k in keys})
