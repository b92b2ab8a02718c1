"""Deterministic topology generators."""

import pytest

from gstsim import network, topogen
from gstsim.topogen import (
    generate_topology,
    gnp_topology,
    grid_topology,
    line_topology,
    tree_topology,
)


def test_line_shape():
    t = line_topology(4)
    assert t.nodes == ("n00", "n01", "n02", "n03")
    assert t.links == frozenset({("n00", "n01"), ("n01", "n02"), ("n02", "n03")})


def test_line_single_node():
    assert line_topology(1).nodes == ("n00",)


def test_tree_shape():
    t = tree_topology(2)
    assert len(t.nodes) == 7
    assert ("n00", "n01") in t.links and ("n00", "n02") in t.links
    assert ("n02", "n06") in t.links  # child 2i+2
    assert max(t.bfs_distances("n00").values()) == 2


def test_tree_height_zero():
    t = tree_topology(0)
    assert len(t.nodes) == 1 and not t.links


def test_grid_shape():
    t = grid_topology(2, 3)
    assert len(t.nodes) == 6
    assert len(t.links) == 2 * 2 + 3  # rows contribute 2x2, columns 3
    assert "r00c00" in t.nodes and "r01c02" in t.nodes


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (5, 1), (3, 4), (12, 12), (101, 2)])
def test_grid_names_and_links_in_order(monkeypatch, rows, cols):
    """The node list and the link list, in the order the topology receives
    them, against lists built cell by cell: each cell, then its right and
    its lower neighbour."""
    monkeypatch.setattr(topogen, "NetworkTopology", lambda nodes, links: (nodes, links))
    cell = "r{:02d}c{:02d}".format
    nodes, links = [], []
    for r in range(rows):
        for c in range(cols):
            nodes.append(cell(r, c))
            if c + 1 < cols:
                links.append((cell(r, c), cell(r, c + 1)))
            if r + 1 < rows:
                links.append((cell(r, c), cell(r + 1, c)))
    assert grid_topology(rows, cols) == (nodes, links)
    assert len(links) == rows * (cols - 1) + cols * (rows - 1)


def test_gnp_is_seed_deterministic():
    a = gnp_topology(9, 0.3, seed=5)
    b = gnp_topology(9, 0.3, seed=5)
    c = gnp_topology(9, 0.3, seed=6)
    assert a.nodes == b.nodes and a.links == b.links
    assert a.links != c.links


def test_gnp_always_connected():
    for seed in range(12):
        t = gnp_topology(7, 0.25, seed=seed)
        assert len(t.components()) == 1


def test_gnp_retry_budget_exhausts():
    with pytest.raises(ValueError, match="connected"):
        gnp_topology(30, 0.0, seed=0)


@pytest.mark.parametrize("limit, n, draws", [
    (network.SIZE_LIMIT, 30, topogen.GNP_RETRY_BUDGET), (1000, 30, 2), (435, 30, 1),
    (10 ** 6, 1000, 2),
])
def test_gnp_retries_stay_within_the_size_budget(monkeypatch, limit, n, draws):
    """A spec with no connected draw makes min(GNP_RETRY_BUDGET,
    SIZE_LIMIT // pairs) draws of its n(n - 1)/2 pairs, and names that
    number."""
    monkeypatch.setattr(topogen, "SIZE_LIMIT", limit)
    made = []
    real = topogen.NetworkTopology
    monkeypatch.setattr(topogen, "NetworkTopology",
                        lambda nodes, links: made.append(n) or real(nodes, links))
    with pytest.raises(ValueError, match=rf"^no connected G\({n}, 0.0\) draw in {draws} attempt"):
        gnp_topology(n, 0.0, seed=0)
    assert len(made) == draws


def test_gnp_single_node_has_no_link_draws():
    assert gnp_topology(1, 0.0, seed=0).nodes == ("n00",)


def test_generate_dispatch():
    t = generate_topology("tree", height=1)
    assert len(t.nodes) == 3
    t = generate_topology("gnp", n=5, p=0.6, seed=2)
    assert len(t.nodes) == 5


def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        generate_topology("torus", n=4)


@pytest.mark.parametrize("kind", [["line"], {"line": 1}, 3, None])
def test_generate_names_a_kind_that_is_not_a_string(kind):
    with pytest.raises(ValueError) as info:
        generate_topology(kind, n=4)
    assert str(info.value) == f"unknown topology kind {kind!r}"


def test_generate_rejects_extra_params():
    with pytest.raises(ValueError):
        generate_topology("line", n=4, p=0.5)


def test_generate_rejects_missing_params():
    with pytest.raises(ValueError):
        generate_topology("grid", rows=2)


@pytest.mark.parametrize("kind, params", [
    ("line", {"n": True}),
    ("line", {"n": "4"}),
    ("line", {"n": 4.0}),
    ("tree", {"height": True}),
    ("tree", {"height": 2.0}),
    ("tree", {"height": "2"}),
    ("grid", {"rows": 2, "cols": True}),
    ("grid", {"rows": 2.0, "cols": 3}),
    ("grid", {"rows": 2, "cols": "3"}),
    ("gnp", {"n": True, "p": 0.5, "seed": 0}),
    ("gnp", {"n": "5", "p": 0.5, "seed": 0}),
    ("gnp", {"n": 5, "p": 0.5, "seed": True}),
    ("gnp", {"n": 5, "p": 0.5, "seed": "x"}),
    ("gnp", {"n": 5, "p": 0.5, "seed": 2.5}),
    ("gnp", {"n": 5, "p": 0.5, "seed": None}),
])
def test_generate_rejects_non_integer_sizes(kind, params):
    with pytest.raises(ValueError, match="must be an integer"):
        generate_topology(kind, **params)


@pytest.mark.parametrize("p", [True, "0.5", None])
def test_gnp_rejects_non_numeric_probability(p):
    with pytest.raises(ValueError, match=r"edge probability must lie in \[0, 1\]"):
        gnp_topology(5, p, seed=0)


@pytest.mark.parametrize("kind, params, message", [
    ("line", {"n": 2 ** 21 + 1}, "2097153 nodes"),
    ("tree", {"height": 21}, "4194303 nodes"),
    ("tree", {"height": 10 ** 100}, "inf nodes"),
    ("grid", {"rows": 2 ** 11, "cols": 2 ** 10 + 1}, "2099200 nodes"),
    ("grid", {"rows": 2, "cols": 2 ** 20}, "3145726 links"),
    ("gnp", {"n": 2049, "p": 0.5, "seed": 0}, "2098176 link draws"),
])
def test_generators_refuse_a_spec_over_the_size_limit(kind, params, message):
    """Each generator counts its nodes and links (a gnp spec's n(n - 1)/2
    draws) from the spec, before it allocates anything."""
    with pytest.raises(ValueError, match=f"^{message} exceed the size limit of 2097152$"):
        generate_topology(kind, **params)


def test_the_size_limit_admits_its_own_size():
    network.check_size(network.SIZE_LIMIT, "nodes")
    with pytest.raises(ValueError, match="^2097153 nodes exceed"):
        network.check_size(network.SIZE_LIMIT + 1, "nodes")


def test_a_topology_document_over_the_size_limit_is_refused(monkeypatch):
    monkeypatch.setattr(network, "SIZE_LIMIT", 3)
    line = {"nodes": ["a", "b", "c"], "links": [["a", "b"], ["b", "c"]]}
    assert len(network.topology_from_dict(line)) == 3
    with pytest.raises(ValueError, match="^4 topology nodes exceed the size limit of 3$"):
        network.topology_from_dict({"nodes": ["a", "b", "c", "d"], "links": []})
    with pytest.raises(ValueError, match="^4 topology links exceed the size limit of 3$"):
        network.topology_from_dict({"nodes": ["a", "b"], "links": [["a", "b"]] * 4})
