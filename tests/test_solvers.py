"""Exact solvers cross-checked against definition-direct oracles.

The oracle functions below were written before the solvers and kept
independent: their own BFS, their own subset/vector scans, no imports
from the solver internals.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from resolvedim import (
    Broadcast,
    SolverResult,
    all_pairs_distances,
    broadcast_value_caps,
    delete_edge,
    delete_vertex,
    disjoint_union,
    enumerate_min_broadcasts,
    families,
    flatten_path_cycle_broadcast,
    is_resolving_broadcast,
    revalidate,
    solve_adim,
    solve_bdim,
    solve_dim,
    solve_dim_k,
)
from resolvedim.verify import labelled_graphs

INF = float("inf")


def _bfs_rows(g):
    rows = []
    for s in range(g.n):
        row = [INF] * g.n
        row[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.adjacency[u]:
                    if row[w] == INF:
                        row[w] = row[u] + 1
                        nxt.append(w)
            frontier = nxt
        rows.append(row)
    return rows


def _oracle_codes_distinct(rows, subset, n, cutoff=None):
    codes = set()
    for v in range(n):
        code = []
        for z in subset:
            x = rows[z][v]
            if cutoff is None:
                code.append(n if x == INF else x)
            else:
                code.append(min(x, cutoff + 1))
        codes.add(tuple(code))
    return len(codes) == n


def oracle_dim(g, cutoff=None):
    """Smallest resolving set size by scanning all subsets in size order."""
    if g.n == 1:
        return 1
    rows = _bfs_rows(g)
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            if _oracle_codes_distinct(rows, subset, g.n, cutoff):
                return size
    raise AssertionError("no resolving set found")


def oracle_bdim(g):
    """Smallest broadcast cost by scanning all value vectors per cost."""
    if g.n == 1:
        return 1
    rows = _bfs_rows(g)
    n = g.n
    cost = 1
    while True:
        for vec in product(range(cost + 1), repeat=n):
            if sum(vec) != cost:
                continue
            supp = [z for z in range(n) if vec[z] > 0]
            if not supp:
                continue
            codes = set()
            for v in range(n):
                codes.add(tuple(min(rows[z][v], vec[z] + 1) for z in supp))
            if len(codes) == n:
                return cost
        cost += 1


def test_solvers_match_oracles_exhaustive():
    for g in labelled_graphs(4):
        d = all_pairs_distances(g) if g.n > 1 else None
        assert solve_dim(g, d).value == oracle_dim(g)
        assert solve_adim(g, d).value == oracle_dim(g, cutoff=1)
        assert solve_bdim(g, d).value == oracle_bdim(g)


def test_solvers_match_oracles_sampled():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(5, 6)
        g = families.random_graph(n, rng.uniform(0.2, 0.8), rng.randrange(10**6))
        d = all_pairs_distances(g)
        assert solve_dim(g, d).value == oracle_dim(g)
        assert solve_adim(g, d).value == oracle_dim(g, cutoff=1)
        assert solve_bdim(g, d).value == oracle_bdim(g)


def test_dim_k_matches_oracle():
    rng = random.Random(7)
    for _ in range(15):
        g = families.random_graph(5, rng.uniform(0.2, 0.8), rng.randrange(10**6))
        for k in (1, 2, 3):
            assert solve_dim_k(g, k).value == oracle_dim(g, cutoff=k)
    with pytest.raises(ValueError):
        solve_dim_k(families.path(3), 0)


def test_known_values():
    assert solve_dim(families.petersen()).value == 3
    assert solve_dim(families.cycle(6)).value == 2
    assert solve_dim(families.complete(4)).value == 3
    assert solve_dim(families.star(3)).value == 2
    assert solve_adim(families.path(5)).value == 2
    assert solve_bdim(families.cycle(7)).value == 3


def test_order_one_convention():
    g = families.path(1)
    assert solve_dim(g).value == 1
    assert solve_adim(g).value == 1
    assert solve_bdim(g).value == 1
    assert solve_bdim(g).witness.values == (1,)
    res = enumerate_min_broadcasts(g)
    assert res.optimal_cost == 1
    assert res.broadcasts == ((1,),)


def test_lex_least_witnesses():
    g = families.path(6)
    assert solve_dim(g).witness == (0,)
    # {0, x} never works: the two vertices past x + 1 read alike
    assert solve_adim(g).witness == (1, 3)
    assert solve_bdim(g).witness.values == (0, 0, 1, 0, 1, 0)


def test_bdim_disconnected_uses_full_eccentricity():
    # lex-least minimum broadcast needs strength ecc_finite at an end vertex,
    # one above the connected-case cap
    g = disjoint_union(families.path(3), families.path(3))
    res = solve_bdim(g)
    assert res.value == 3
    assert res.witness.values == (0, 0, 1, 0, 0, 2)


def test_broadcast_value_caps():
    assert broadcast_value_caps(families.path(5)) == (3, 2, 1, 2, 3)
    assert broadcast_value_caps(families.complete(4)) == (1, 1, 1, 1)
    g = disjoint_union(families.path(3), families.path(3))
    assert broadcast_value_caps(g) == (2, 1, 2, 2, 1, 2)


def test_solver_results_revalidate():
    for g in (families.petersen(), families.wheel(6), families.spider(3, 2)):
        d = all_pairs_distances(g)
        for res in (solve_dim(g, d), solve_adim(g, d), solve_bdim(g, d)):
            assert revalidate(g, res)
        assert revalidate(g, solve_dim_k(g, 2, d), k=2)
        assert revalidate(g, solve_dim_k(g, 2, d), k=2, d=d)
        assert all(revalidate(g, res, d=d) for res in (solve_dim(g, d), solve_adim(g, d), solve_bdim(g, d)))


def test_revalidate_rejects_malformed_requests():
    g = families.path(6)
    res = solve_dim_k(g, 2)
    with pytest.raises(ValueError):
        revalidate(g, res)  # dim_k needs its k
    with pytest.raises(ValueError):
        revalidate(g, SolverResult("tdim", 1, (0,), 0, 1, 0))
    for landmark in (-1, 6):
        with pytest.raises(ValueError):
            revalidate(g, SolverResult("dim", 1, (landmark,), 0, 1, 0))


def test_bdim_builds_one_metric_profile(monkeypatch):
    from resolvedim import graphs

    calls = []
    profile = graphs.metric_profile

    def counted(g, d=None):
        calls.append(g.n)
        return profile(g, d)

    # The distance matrix's `profile` builds it through this binding.
    monkeypatch.setattr(graphs, "metric_profile", counted)
    for g in (families.cycle(8), disjoint_union(families.path(3), families.path(4))):
        calls.clear()
        solve_bdim(g)
        assert calls == [g.n]


def test_solves_and_checks_share_truncated_rows(monkeypatch):
    from collections import Counter

    from resolvedim import graphs, resolution, solvers

    made = Counter()
    truncate = graphs.truncated_row

    def counted(drow, k, n):
        made[k, next(z for z, row in enumerate(d.dist) if row is drow)] += 1
        return truncate(drow, k, n)

    # The bundle's `truncated` makes its rows through the graphs binding,
    # and the solvers and resolution checks must reach them only through
    # it: a row they truncate themselves is counted too, and truncated
    # twice.
    for module in (graphs, resolution, solvers):
        monkeypatch.setattr(module, "truncated_row", counted, raising=False)
    cases = (
        families.cycle(8),
        families.path(7),
        families.petersen(),
        families.spider(3, 2),
        disjoint_union(families.path(3), families.cycle(4)),
        families.random_graph(9, 0.2, 1),
    )
    rows = 0
    for g in cases:
        made.clear()
        d = all_pairs_distances(g)
        # A check before the solves makes rows of the strength-1 table
        # alone; adim's table must take them, not make them again.
        is_resolving_broadcast(g, (1,) * g.n, d)
        results = [solve_adim(g, d), solve_dim(g, d), solve_bdim(g, d)]
        dim_1 = solve_dim_k(g, 1, d)
        enumerate_min_broadcasts(g, d)
        assert all(revalidate(g, res, d=d) for res in results)
        assert revalidate(g, dim_1, k=1, d=d)
        assert max(made.values(), default=1) == 1, (g.edges(), made.most_common(3))
        rows += len(made)
    # The Petersen graph's rows all lie within 2, so it truncates none.
    assert rows > 0


def test_enumerate_path2_and_star():
    res = enumerate_min_broadcasts(families.path(2))
    assert res.optimal_cost == 1
    assert res.broadcasts == ((0, 1), (1, 0))
    res = enumerate_min_broadcasts(families.star(4))
    assert res.optimal_cost == 3
    assert len(res.broadcasts) == 4
    assert all(sum(b) == 3 and max(b) == 1 and b[0] == 0 for b in res.broadcasts)


def test_enumerate_kk2_counts():
    for k, count in ((1, 2), (2, 4), (3, 8)):
        res = enumerate_min_broadcasts(families.kK2(k))
        assert res.optimal_cost == k
        assert len(res.broadcasts) == count
        # one unit on either endpoint of each pair
        for b in res.broadcasts:
            assert all(b[2 * i] + b[2 * i + 1] == 1 for i in range(k))


def test_enumerate_matches_naive_scan():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 5)
        g = families.random_graph(n, rng.uniform(0.1, 0.9), rng.randrange(10**6))
        res = enumerate_min_broadcasts(g)
        rows = _bfs_rows(g)
        found = []
        for vec in product(range(res.optimal_cost + 1), repeat=n):
            if sum(vec) != res.optimal_cost:
                continue
            supp = [z for z in range(n) if vec[z] > 0]
            if not supp:
                continue
            codes = {
                tuple(min(rows[z][v], vec[z] + 1) for z in supp) for v in range(n)
            }
            if len(codes) == n:
                found.append(vec)
        assert list(res.broadcasts) == found
        # no resolving broadcast exists at any smaller cost
        for cost in range(1, res.optimal_cost):
            for vec in product(range(cost + 1), repeat=n):
                if sum(vec) == cost and any(vec):
                    assert not is_resolving_broadcast(g, vec).resolving


def test_flatten_worked_examples():
    # strength 2 at a path end keeps a unit there and pushes one inward
    g = families.path(6)
    flat = flatten_path_cycle_broadcast(g, (2, 0, 0, 0, 0, 1))
    assert flat.values == (1, 1, 0, 0, 0, 1)
    # strength 3 keeps x - 2 and spawns units at ring offsets +-2
    g = families.cycle(8)
    flat = flatten_path_cycle_broadcast(g, (3, 0, 1, 0, 0, 1, 0, 0))
    assert flat.values == (1, 0, 1, 0, 0, 1, 1, 0)
    # interior strength 2 splits to both neighbours
    g = families.path(4)
    flat = flatten_path_cycle_broadcast(g, (1, 0, 2, 0))
    assert flat.values == (1, 1, 0, 1)
    # already flat input is returned unchanged
    g = families.path(5)
    assert flatten_path_cycle_broadcast(g, (1, 0, 1, 0, 0)).values == (1, 0, 1, 0, 0)
    # strength 5 on C4: both ring offsets land back on j itself
    g = families.cycle(4)
    assert flatten_path_cycle_broadcast(g, (0, 0, 1, 5)).values == (0, 1, 1, 1)
    # strength 3 on C4: both offsets hit the same vertex, and the local
    # rules end at a non-resolving vector, so the fallback answers
    assert flatten_path_cycle_broadcast(g, (0, 0, 2, 3)).values == (1, 1, 0, 0)
    # on a path the ring offset wraps past the end
    g = families.path(4)
    assert flatten_path_cycle_broadcast(g, (0, 0, 1, 4)).values == (1, 0, 1, 1)
    assert flatten_path_cycle_broadcast(g, (0, 0, 2, 4)).values == (1, 1, 1, 1)


def test_flatten_fallback_case():
    # the local rules dead-end on this input; the fallback must still
    # return a 0/1 resolving broadcast of no greater cost
    g = families.cycle(4)
    flat = flatten_path_cycle_broadcast(g, (2, 1, 0, 0))
    assert flat.values == (1, 1, 0, 0)
    assert is_resolving_broadcast(g, flat)


def test_flatten_rejects_bad_input():
    with pytest.raises(ValueError):
        flatten_path_cycle_broadcast(families.star(4), (1, 1, 0, 0, 0))
    with pytest.raises(ValueError):
        flatten_path_cycle_broadcast(families.path(3), (1, 0, 1))
    with pytest.raises(ValueError):
        # not resolving: both far vertices read (2, 2)
        flatten_path_cycle_broadcast(families.path(6), (1, 1, 0, 0, 0, 0))


def test_flatten_random_battery():
    rng = random.Random(19)
    for builder in (families.path, families.cycle):
        for n in (5, 9, 12):
            g = builder(n)
            d = all_pairs_distances(g)
            done = 0
            while done < 10:
                vals = [0] * n
                for v in rng.sample(range(n), 3):
                    vals[v] = rng.randint(1, 4)
                f = tuple(vals)
                if not is_resolving_broadcast(g, f, d):
                    continue
                done += 1
                flat = flatten_path_cycle_broadcast(g, f)
                assert max(flat.values) <= 1
                assert flat.cost <= sum(f)
                assert is_resolving_broadcast(g, flat, d)


def test_delete_vertex_and_edge():
    g, mapping = delete_vertex(families.complete(4), 1)
    assert g.n == 3 and g.m == 3
    assert mapping == (0, 2, 3)
    h = delete_edge(families.cycle(5), (0, 4))
    assert h.edges() == ((0, 1), (1, 2), (2, 3), (3, 4))
    g, mapping = delete_vertex(families.path(3), 1)
    assert g.m == 0 and g.n == 2
    with pytest.raises(ValueError):
        delete_edge(families.path(3), (0, 2))
    with pytest.raises(ValueError):
        delete_vertex(families.path(3), 3)


def test_solver_stats_present():
    res = solve_bdim(families.cycle(6))
    assert res.candidates_examined >= 1
    assert res.lower_bound_used >= 1
    assert res.kind == "bdim"


def test_nodes_built_counts_the_code_scan():
    # A solve of order 2 or less checks its leaves and builds no node's
    # codes. The slack of bdim on C20 and P20 stays below n/2, so every
    # level of theirs is scanned by codes.
    for g in labelled_graphs(2):
        d = all_pairs_distances(g)
        for res in (solve_dim(g, d), solve_adim(g, d), solve_dim_k(g, 2, d), solve_bdim(g, d)):
            assert res.nodes_built == 0, (res.kind, g.n, g.edges())
    # The benchmark ladder's scanned solves, (candidates checked, nodes
    # built): a node counts once its row's gain passes, whether or not its
    # class count then cuts it before its codes are built. bdim of C16,
    # whose class-count bound is made before its first level, cuts 1,007
    # of its 1,458 that way.
    ladder = [
        solve_bdim(families.cycle(16)),
        solve_bdim(families.path(14)),
        solve_bdim(families.grid((3, 5))),
        solve_adim(families.cycle(17)),
        solve_adim(families.path(17)),
    ]
    assert [(res.candidates_checked, res.nodes_built) for res in ladder] == [
        (42, 1458),
        (68, 1156),
        (154, 208),
        (19, 568),
        (23, 590),
    ]
    scanned = [solve_bdim(families.cycle(20)), solve_bdim(families.path(20))]
    assert [(res.candidates_checked, res.nodes_built) for res in scanned] == [(350, 16516), (30, 5105)]
    # Trees with twin leaves, where the twin rule bounds and steers the
    # walk: (candidates checked, nodes built). The first two have one
    # group of three and two groups of two, and the pair-cover proof
    # counts bdim's empty levels 4 to 6 of the first and level 5 of the
    # second whole, and finds a cover of the value: that level is walked
    # over the covers, and builds no node; the second builds its 58 on
    # level 4, which it scans. adim of random_tree(20, 2) scans levels 2
    # to 7, proves level 8 empty and walks its value 9 over the pair
    # tables, and dim of random_tree(28, 1) meets its twin groups on the
    # pair-table walk. dim of random_tree(21, 1) scans levels 1 and 2,
    # whose few subsets are cheaper to scan than the tables are to build,
    # proves level 3 empty and walks its value 4.
    for solve, g, counts in (
        (solve_bdim, families.random_tree(14, 1), (14, 0)),
        (solve_bdim, families.random_tree(14, 0), (15, 58)),
        (solve_adim, families.random_tree(20, 2), (20, 937)),
        (solve_dim, families.random_tree(28, 1), (26, 3)),
        (solve_dim, families.random_tree(21, 1), (261, 20)),
    ):
        res = solve(g)
        assert (res.candidates_checked, res.nodes_built) == counts, (res.kind, g.n)
