"""Deterministic topology generators."""

import pytest

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
    assert t.eccentricity("n00") == 2


def test_tree_height_zero():
    t = tree_topology(0)
    assert len(t.nodes) == 1 and not t.links


def test_grid_shape():
    t = grid_topology(2, 3)
    assert len(t.nodes) == 6
    assert len(t.links) == 2 * 2 + 3  # rows contribute 2x2, columns 3
    assert "r00c00" in t.nodes and "r01c02" in t.nodes


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


def test_generate_dispatch():
    t = generate_topology("tree", height=1)
    assert len(t.nodes) == 3
    t = generate_topology("gnp", n=5, p=0.6, seed=2)
    assert len(t.nodes) == 5


def test_generate_rejects_unknown_kind():
    with pytest.raises(ValueError):
        generate_topology("torus", n=4)


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
