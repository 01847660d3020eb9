"""Structural checks for the graph generators: fixed numbering, edge
counts, determinism of the seeded builders, and generate() dispatch."""

import pytest

from resolvedim import families
from resolvedim.families import FamilySpec, generate
from resolvedim.graphs import induced_subgraph, tree_profile


def test_path_cycle_layout():
    p = families.path(5)
    assert p.n == 5
    assert p.edges() == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert families.path(1).edges() == ()
    c = families.cycle(6)
    assert len(c.edges()) == 6
    assert all(len(c.adjacency[v]) == 2 for v in range(6))
    with pytest.raises(ValueError):
        families.path(0)
    with pytest.raises(ValueError):
        families.cycle(2)


def test_complete_empty_star():
    assert len(families.complete(5).edges()) == 10
    assert families.empty(4).edges() == ()
    s = families.star(4)
    assert s.n == 5
    assert len(s.adjacency[0]) == 4
    assert all(s.adjacency[i] == (0,) for i in range(1, 5))


def test_complete_multipartite_parts_are_consecutive():
    g = families.complete_multipartite((2, 3))
    assert g.n == 5
    assert len(g.edges()) == 6
    assert not g.has_edge(0, 1)
    assert not g.has_edge(2, 3)
    assert g.has_edge(0, 2)
    with pytest.raises(ValueError):
        families.complete_multipartite((3,))
    with pytest.raises(ValueError):
        families.complete_multipartite((0, 2))


def test_wheel_fan_hub_is_last():
    w = families.wheel(5)
    assert w.n == 6
    assert len(w.adjacency[5]) == 5
    assert len(w.edges()) == 10
    f = families.fan(4)
    assert f.n == 5
    assert len(f.adjacency[4]) == 4
    assert len(f.edges()) == 7


def test_petersen_structure():
    g = families.petersen()
    assert g.n == 10
    assert len(g.edges()) == 15
    assert all(len(g.adjacency[v]) == 3 for v in range(10))
    # outer ring, spokes, inner pentagram
    assert g.has_edge(0, 1) and g.has_edge(0, 5) and g.has_edge(5, 7)
    assert not g.has_edge(5, 6)


def test_grid_shapes():
    g = families.grid((2, 3))
    assert g.n == 6
    assert len(g.edges()) == 7
    cube = families.grid((2, 2, 2))
    assert cube.n == 8
    assert len(cube.edges()) == 12
    assert all(len(cube.adjacency[v]) == 3 for v in range(8))
    assert families.grid(4).edges() == families.path(4).edges()
    with pytest.raises(ValueError):
        families.grid(())


def test_bits_construction_digit_incidence():
    g = families.bits_construction(families.complete(2), families.empty(4))
    assert g.n == 6
    # string vertex for 00 floats free; 01 hits base vertex 1; 10 hits 0
    assert g.adjacency[2] == ()
    assert g.adjacency[3] == (1,)
    assert g.adjacency[4] == (0,)
    assert set(g.adjacency[5]) == {0, 1}
    with pytest.raises(ValueError):
        families.bits_construction(families.complete(2), families.empty(3))


def test_logn_sharp_order_and_degree():
    for k in (1, 2, 3):
        g = families.logn_sharp(k)
        assert g.n == k + 2**k
        assert max(len(g.adjacency[v]) for v in range(g.n)) == k + 2**k - 1
    with pytest.raises(ValueError):
        families.logn_sharp(0)


def test_logn_sharp_trimmed_is_a_prefix():
    full = families.logn_sharp(2)
    assert families.logn_sharp_trimmed(6).edges() == full.edges()
    assert families.logn_sharp_trimmed(5).edges() == (
        induced_subgraph(full, range(5)).edges()
    )
    for n in range(1, 13):
        assert families.logn_sharp_trimmed(n).n == n


def test_subgraph_gap_clique_and_selectors():
    g = families.subgraph_gap(3)
    assert g.n == 9
    inner = induced_subgraph(g, range(6))
    assert len(inner.edges()) == 15
    # each selector sees exactly k clique vertices and no other selector
    for u in range(6, 9):
        assert len(g.adjacency[u]) == 3
        assert all(v < 6 for v in g.adjacency[u])


def test_vdel_gap_layout():
    g = families.vdel_gap(2)
    assert g.n == 8
    assert len(g.adjacency[0]) == 6
    assert set(g.adjacency[7]) == {2, 5}
    assert g.has_edge(1, 2) and g.has_edge(2, 3) and g.has_edge(1, 3)


def test_edge_gap_layout():
    g = families.edge_gap(3, 2, 3)
    assert g.n == 11
    assert families.edge_gap_special_edge(3, 2, 3) == (3, 8)
    assert g.has_edge(3, 8)
    assert len(g.edges()) == 11
    assert set(g.adjacency[1]) == {0, 2, 6, 7}
    with pytest.raises(ValueError):
        families.edge_gap(2, 2, 3)
    with pytest.raises(ValueError):
        families.edge_gap(3, 1, 3)


def test_spider_layout():
    g = families.spider(3, 2)
    assert g.n == 6
    assert g.edges() == ((0, 1), (0, 3), (0, 5), (1, 2), (3, 4))
    assert families.spider(4, 0).edges() == families.star(4).edges()
    assert families.spider(3, 3).n == 7
    with pytest.raises(ValueError):
        families.spider(2, 1)
    with pytest.raises(ValueError):
        families.spider(3, 4)


def test_matching_families():
    g = families.kK2(3)
    assert g.edges() == ((0, 1), (2, 3), (4, 5))
    h = families.kK2_plus_isolated(2)
    assert h.n == 5
    assert h.adjacency[4] == ()


def test_grid_plus_apex():
    g = families.grid_plus_apex(2)
    assert g.n == 5
    assert set(g.adjacency[4]) == {0, 1, 2, 3}
    assert len(g.edges()) == 8


def test_random_graph_is_seed_deterministic():
    a = families.random_graph(8, 0.5, 3)
    b = families.random_graph(8, 0.5, 3)
    assert a.edges() == b.edges()
    assert families.random_graph(6, 0.0, 1).edges() == ()
    assert len(families.random_graph(6, 1.0, 1).edges()) == 15
    with pytest.raises(ValueError):
        families.random_graph(5, 1.5, 0)


def test_random_tree_is_always_a_tree():
    for n in range(1, 11):
        for seed in range(20):
            t = families.random_tree(n, seed)
            assert t.n == n
            assert len(t.edges()) == n - 1
            assert tree_profile(t).is_tree
    assert families.random_tree(9, 4).edges() == families.random_tree(9, 4).edges()


def test_sample_Hk_order_bound():
    for k in (1, 2, 3):
        for seed in range(5):
            g = families.sample_Hk(k, seed)
            assert 1 <= g.n <= k + 2**k
    a = families.sample_Hk(3, 7)
    b = families.sample_Hk(3, 7)
    assert a.edges() == b.edges()


def test_generate_dispatch():
    g = generate(FamilySpec("path", {"n": 4}))
    assert g.edges() == families.path(4).edges()
    g = generate(FamilySpec("edge_gap", {"a": 3, "b": 2, "c": 3}))
    assert g.n == 11
    with pytest.raises(KeyError):
        generate(FamilySpec("moebius", {"n": 4}))
    with pytest.raises(ValueError):
        generate(FamilySpec("path", {"n": 4, "m": 1}))
    with pytest.raises(ValueError):
        generate(FamilySpec("path", {}))
    assert generate(FamilySpec("grid", {"dims": (2, 3)})).n == 6
    assert generate(FamilySpec("random_graph", {"n": 5, "p": 0.5, "seed": 1})).n == 5
    assert generate(FamilySpec("random_graph", {"n": 5, "p": 1, "seed": 1})).m == 10
    for family, params in (
        ("path", {"n": 2.5}),
        ("path", {"n": "4"}),
        ("path", {"n": True}),
        ("grid", {"dims": (2, "x")}),
        ("random_graph", {"n": 5, "p": "0.5", "seed": 1}),
        ("random_graph", {"n": 5, "p": 0.5, "seed": 1.0}),
        ("spider", {"x": (4, 2), "s": 1}),
    ):
        with pytest.raises(ValueError, match="takes integers"):
            generate(FamilySpec(family, params))


def test_order_matches_the_built_graph():
    params = {
        "path": {"n": 5}, "cycle": {"n": 5}, "complete": {"n": 5}, "empty": {"n": 5},
        "star": {"x": 4}, "complete_multipartite": {"parts": (1, 2, 3)}, "wheel": {"n": 5},
        "fan": {"n": 5}, "petersen": {}, "grid": {"dims": (2, 3, 2)}, "logn_sharp": {"k": 3},
        "logn_sharp_trimmed": {"n": 9}, "subgraph_gap": {"k": 4}, "vdel_gap": {"k": 3},
        "edge_gap": {"a": 3, "b": 2, "c": 4}, "spider": {"x": 4, "s": 2}, "kK2": {"k": 3},
        "kK2_plus_isolated": {"k": 3}, "grid_plus_apex": {"k": 3},
        "random_graph": {"n": 7, "p": 0.5, "seed": 2}, "random_tree": {"n": 7, "seed": 2},
    }
    assert set(params) | {"sample_Hk"} == set(families.FAMILIES)
    for family, values in params.items():
        spec = FamilySpec(family, values)
        assert families.order(spec) == generate(spec).n, family
    # sample_Hk keeps a random share of its 2**j string vertices, j <= k.
    for seed in range(20):
        spec = FamilySpec("sample_Hk", {"k": 3, "seed": seed})
        assert generate(spec).n <= families.order(spec) == 3 + 2**3
    assert families.order(FamilySpec("logn_sharp", {"k": 10**12})) == 10**12 + 2**64
    with pytest.raises(ValueError, match="takes integers"):
        families.order(FamilySpec("path", {"n": 2.5}))
