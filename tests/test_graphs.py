"""Graph construction, metrics, twins, and structural profiles."""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, fields
from functools import cached_property
from itertools import combinations

import pytest

from resolvedim import (
    all_pairs_distances,
    broadcast_codes,
    build_graph,
    cartesian_product,
    clique_number,
    complement,
    delta_prime,
    disjoint_union,
    families,
    induced_subgraph,
    join,
    metric_profile,
    tree_profile,
    truncated_row,
    twin_partition,
)
from resolvedim.verify import labelled_graphs


def test_build_graph_basics():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.m == 3
    assert g.degree(1) == 2
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert g.edges() == ((0, 1), (1, 2), (2, 3))


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph(-1, [])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        build_graph(2, [(1, 1)])


def test_build_graph_dedups_edges():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_equal_graphs_hash_equal():
    # Separately built equal graphs share a hash and find each other as
    # dict keys; the cached hash is no field, so equality, repr, fields()
    # and immutability are the dataclass's own.
    g = build_graph(3, [(0, 1), (1, 2)])
    h = build_graph(3, [(2, 1), (1, 0)])
    assert g is not h and g == h
    assert hash(g) == hash(h) == hash((3, ((1,), (0, 2), (1,))))
    assert {g: "path"}[h] == "path"
    assert {g, h, families.path(3)} == {h}
    assert g != build_graph(3, [(0, 1)])
    assert [f.name for f in fields(g)] == ["n", "adjacency"]
    assert repr(g) == "Graph(n=3, adjacency=((1,), (0, 2), (1,)))"
    with pytest.raises(FrozenInstanceError):
        g.n = 4


def test_distances_path():
    g = families.path(5)
    d = all_pairs_distances(g)
    assert d.dist[0] == (0, 1, 2, 3, 4)
    assert d.dist[2] == (2, 1, 0, 1, 2)


def test_distances_disconnected_sentinel():
    g = disjoint_union(families.path(2), families.path(2))
    d = all_pairs_distances(g)
    assert d.dist[0] == (0, 1, 4, 4)


def test_truncated_distance_values():
    g = disjoint_union(families.path(4), families.path(1))
    row = all_pairs_distances(g).dist[0]
    assert row == (0, 1, 2, 3, 5)
    # vertex 3 sits at distance 3; vertex 4 is unreachable and pins at k + 1
    assert truncated_row(row, 1, g.n) == (0, 1, 2, 2, 2)
    assert truncated_row(row, 2, g.n) == (0, 1, 2, 3, 3)
    assert truncated_row(row, 3, g.n) == (0, 1, 2, 3, 4)
    # k + 1 above n: the sentinel n itself moves up to k + 1
    assert truncated_row(row, 5, g.n) == (0, 1, 2, 3, 6)


def _truncation_cases():
    """Every labelled graph of order <= 5 and seeded sparse graphs of order
    9, most of them disconnected."""
    yield from labelled_graphs(5)
    for seed in range(30):
        yield families.random_graph(9, 0.2, seed)


def test_truncated_tables_match_truncated_row():
    # d.truncated(k) is truncated_row row by row for every k in 1..n + 2,
    # is made once per k, and keeps each row the cut leaves unchanged as
    # the distance row itself (the whole table as d.dist when all are).
    # d.cut_row(z, k) reads the same table: rows it made first are the
    # table's rows, and after the table it returns the table's row.
    tables = pinned = 0
    for g in _truncation_cases():
        n = g.n
        d = all_pairs_distances(g)
        for k in range(1, n + 3):
            early = {z: d.cut_row(z, k) for z in range(1, n, 2)}
            table = d.truncated(k)
            assert d.truncated(k) is table
            assert type(table) is tuple and len(table) == n
            for z, row in enumerate(d.dist):
                want = truncated_row(row, k, n)
                assert table[z] == want, (g.edges(), k, z)
                if want == row:
                    assert table[z] is row, (g.edges(), k, z)
                assert d.cut_row(z, k) is table[z] is early.get(z, table[z])
            if k + 1 == n or all(map(tuple.__eq__, table, d.dist)):
                assert table is d.dist, (g.edges(), k)
            # Past n the sentinel moves up to k + 1: a row holding it is
            # not its own truncation although no entry exceeds the cut.
            if k + 1 > n and not d.profile.connected:
                assert table is not d.dist
                pinned += 1
            tables += 1
    assert tables == 7_933
    assert pinned == 1_050


def test_checks_truncate_only_the_rows_they_read(monkeypatch):
    # A check reads one row per support vertex, each at its own strength,
    # and truncates those rows alone, not a whole table per strength.
    from resolvedim import graphs

    made = []
    truncate = graphs.truncated_row
    monkeypatch.setattr(graphs, "truncated_row", lambda drow, k, n: made.append(k) or truncate(drow, k, n))
    g = families.path(7)
    d = all_pairs_distances(g)
    f = (1, 2, 3, 4, 5, 6, 7)
    assert broadcast_codes(g, d, f) == list(zip(*(truncate(d.dist[z], f[z], 7) for z in range(7))))
    # Row z reaches max(z, 6 - z), so only rows 0 and 1 exceed z + 2.
    assert made == [1, 2]
    assert [d.cut_row(z, f[z]) is d.dist[z] for z in range(7)] == [False, False] + [True] * 5


def test_bundle_makes_twins_profile_and_tree_once(monkeypatch):
    # A bundle's twins, profile and tree are made on first read, through
    # the module's `twin_partition` and `metric_profile` (the bindings the
    # benchmark's spans wrap), and kept in a dict: a later read returns
    # the same object and makes nothing, and no cached_property is left
    # on the class, whose first read takes a lock before Python 3.12.
    from resolvedim import graphs

    made = []
    twins, profile = graphs.twin_partition, graphs.metric_profile
    monkeypatch.setattr(graphs, "twin_partition", lambda g: made.append("twins") or twins(g))
    monkeypatch.setattr(graphs, "metric_profile", lambda g, d=None: made.append("profile") or profile(g, d))
    assert not any(isinstance(v, cached_property) for v in vars(graphs.DistanceMatrix).values())
    for g in (families.spider(4, 2), families.cycle(6)):
        made.clear()
        d = all_pairs_distances(g)
        first = d.twins, d.profile, d.tree
        assert (d.twins, d.profile, d.tree) == first
        assert all(map(operator.is_, (d.twins, d.profile, d.tree), first))
        assert made == ["twins", "profile"]
        assert first == (twin_partition(g), metric_profile(g), tree_profile(g))


def test_metric_profile_eccentricities_by_definition():
    # The connected shortcut and the disconnected filter both give the
    # largest finite distance in each row.
    for g in _truncation_cases():
        d = all_pairs_distances(g)
        eccs = tuple(max(x for x in row if x < g.n) for row in d.dist)
        prof = metric_profile(g, d)
        assert prof.finite_eccentricities == eccs
        assert prof.connected == all(max(row) < g.n for row in d.dist)


def test_twin_partition_star_leaves():
    g = families.star(4)
    part = twin_partition(g)
    assert set(map(frozenset, part.pairs)) == {
        frozenset(p) for p in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    }
    groups = [grp for grp in part.groups if len(grp) > 1]
    assert groups == [(1, 2, 3, 4)]
    assert part.forced_minimum() == 3


def test_twin_partition_adjacent_twins():
    g = families.complete(3)
    part = twin_partition(g)
    assert part.forced_minimum() == 2


def test_twin_partition_matches_definition_up_to_order_6():
    # Pairs by the definition N(u) - {w} = N(w) - {u}; groups greedily in
    # ascending order, each vertex joining only if twin to every member.
    count = 0
    for g in labelled_graphs(6):
        nbrs = [set(row) for row in g.adjacency]
        twins = {(u, w) for u, w in combinations(range(g.n), 2) if nbrs[u] - {w} == nbrs[w] - {u}}
        groups = []
        for w in range(g.n):
            grp = next((grp for grp in groups if all((u, w) in twins for u in grp)), None)
            if grp is None:
                groups.append([w])
            else:
                grp.append(w)
        part = twin_partition(g)
        assert part.pairs == tuple(sorted(twins)), g.edges()
        assert part.groups == tuple(map(tuple, groups)), g.edges()
        count += 1
    assert count == 33_867


def test_metric_profile_cycle():
    prof = metric_profile(families.cycle(6))
    assert prof.connected
    assert prof.diameter == 3
    assert prof.finite_eccentricities == (3,) * 6


def test_metric_profile_disconnected():
    g = disjoint_union(families.path(3), families.path(2))
    prof = metric_profile(g)
    assert not prof.connected
    assert prof.diameter == 5
    assert prof.finite_diameter == 2
    assert prof.finite_eccentricities == (2, 1, 2, 1, 1)


def test_delta_prime_values():
    # star: all leaves at distance 1 from the center
    assert delta_prime(families.star(4)) == 4
    assert delta_prime(families.path(2)) == 1
    assert delta_prime(families.cycle(5)) == 2
    # Every labelled graph of order <= 5, disconnected ones included,
    # against a count over Floyd-Warshall distances.
    count = 0
    for g in labelled_graphs(5, min_order=0):
        n = g.n
        far = float("inf")
        dist = [[0 if x == y else far for y in range(n)] for x in range(n)]
        for x, y in g.edges():
            dist[x][y] = dist[y][x] = 1
        for z in range(n):
            for x in range(n):
                for y in range(n):
                    dist[x][y] = min(dist[x][y], dist[x][z] + dist[z][y])
        expected = max(
            (sum(dist[v][x] == j for x in range(n)) for v in range(n) for j in range(1, n)),
            default=0,
        )
        assert delta_prime(g) == expected, (n, g.edges())
        count += 1
    assert count == 1_100


def test_tree_profile_path_and_spider():
    prof = tree_profile(families.path(6))
    assert prof.is_tree
    assert prof.sigma == 2
    assert prof.ex == 0
    assert prof.spider is None

    g = families.spider(3, 1)
    prof = tree_profile(g)
    assert prof.is_tree
    assert prof.sigma == 3
    assert prof.ex == 1
    assert prof.spider is not None
    assert prof.spider.center == 0
    assert prof.spider.leg_lengths == (2, 1, 1)


def test_tree_profile_two_majors():
    # two stars joined by a bridge: both centers are exterior majors
    g = build_graph(8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6), (4, 7)])
    prof = tree_profile(g)
    assert prof.is_tree
    assert prof.ex == 2
    assert prof.sigma == 5
    assert prof.spider is None


def test_tree_profile_rejects_cycle():
    assert not tree_profile(families.cycle(4)).is_tree
    assert not tree_profile(disjoint_union(families.path(2), families.path(2))).is_tree


def test_tree_profile_checks_edge_count_first(monkeypatch):
    from resolvedim import graphs

    calls = []
    bfs = graphs.all_pairs_distances
    monkeypatch.setattr(graphs, "all_pairs_distances", lambda g: calls.append(g) or bfs(g))
    assert not tree_profile(families.cycle(5)).is_tree
    assert calls == []
    # n - 1 edges but a triangle and an isolated vertex: BFS decides.
    assert not tree_profile(disjoint_union(families.cycle(3), families.path(1))).is_tree
    assert len(calls) == 1


def test_complement_involution():
    g = families.random_graph(7, 0.4, seed=5)
    assert complement(complement(g)) == g
    assert complement(families.complete(4)).m == 0


def test_join_and_union_orders():
    w = join(families.cycle(5), families.complete(1))
    assert w.n == 6
    assert w.degree(5) == 5
    u = disjoint_union(families.path(3), families.cycle(3))
    assert u.n == 6
    assert u.m == 5


def test_cartesian_product_grid():
    g = cartesian_product(families.path(2), families.path(3))
    assert g.n == 6
    assert g.m == 7
    # (0,0) -> id 0 adjacent to (0,1) -> id 1 and (1,0) -> id 3
    assert g.has_edge(0, 1)
    assert g.has_edge(0, 3)
    assert not g.has_edge(0, 4)


def test_induced_subgraph_renumbers():
    g = families.cycle(5)
    h = induced_subgraph(g, [1, 2, 4])
    assert h.n == 3
    assert h.edges() == ((0, 1),)
    with pytest.raises(ValueError):
        induced_subgraph(g, [1, 1])
    with pytest.raises(ValueError):
        induced_subgraph(g, [])


def test_clique_number():
    assert clique_number(families.complete(5)) == 5
    assert clique_number(families.cycle(5)) == 2
    assert clique_number(families.empty(3)) == 1
    assert clique_number(families.wheel(5)) == 3
    assert clique_number(families.petersen()) == 2
