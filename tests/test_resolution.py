"""Code vectors and resolution predicates, frozen against hand oracles."""

from __future__ import annotations

from itertools import combinations, count

import pytest
import seed_oracle

from resolvedim import (
    Broadcast,
    SolverResult,
    all_pairs_distances,
    broadcast_code,
    broadcast_codes,
    counting_feasible,
    disjoint_union,
    families,
    is_adjacency_resolving_set,
    is_resolving_broadcast,
    is_resolving_set,
    revalidate,
)
from resolvedim.resolution import counting_floor
from resolvedim.verify import labelled_graphs


def test_broadcast_dataclass():
    f = Broadcast((0, 2, 0, 1))
    assert f.cost == 3
    assert f.support == (1, 3)
    with pytest.raises(ValueError):
        is_resolving_broadcast(families.path(4), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        is_resolving_broadcast(families.path(4), (1, -1, 0, 0))
    with pytest.raises(ValueError):
        is_resolving_broadcast(families.path(4), (1, 0, 0))


def test_broadcast_codes_path():
    g = families.path(5)
    d = all_pairs_distances(g)
    f = (1, 0, 1, 0, 0)
    # support (0, 2); entries are min(d, strength + 1)
    assert broadcast_code(g, d, f, 0) == (0, 2)
    assert broadcast_code(g, d, f, 1) == (1, 1)
    assert broadcast_code(g, d, f, 3) == (2, 1)
    assert broadcast_code(g, d, f, 4) == (2, 2)


def test_broadcast_codes_unreachable_pinned():
    g = disjoint_union(families.path(3), families.path(1))
    d = all_pairs_distances(g)
    f = (2, 0, 0, 0)
    # the isolated vertex sits at strength + 1, above every reachable entry
    assert broadcast_code(g, d, f, 3) == (3,)
    assert broadcast_code(g, d, f, 2) == (2,)


def test_resolving_broadcast_oracle_pair():
    g = families.path(5)
    assert is_resolving_broadcast(g, (1, 0, 1, 0, 0)).resolving
    verdict = is_resolving_broadcast(g, (1, 0, 0, 1, 0))
    assert not verdict.resolving
    assert verdict.unresolved_pair == (2, 4)


def test_verdict_reports_lex_first_pair():
    g = families.empty(4)
    verdict = is_resolving_broadcast(g, (1, 0, 0, 0))
    assert not verdict
    assert verdict.unresolved_pair == (1, 2)


def test_resolving_set_path_ends():
    g = families.path(6)
    assert is_resolving_set(g, [0])
    assert is_resolving_set(g, [5])
    assert not is_resolving_set(g, [2]).resolving
    with pytest.raises(ValueError):
        is_resolving_set(g, [])
    with pytest.raises(ValueError):
        is_resolving_set(g, [0, 6])


def test_resolving_set_disconnected():
    # a landmark inside one component separates across components via the sentinel
    g = disjoint_union(families.path(2), families.path(2))
    assert is_resolving_set(g, [0, 2])
    assert not is_resolving_set(g, [0]).resolving


def test_adjacency_resolving_set():
    g = families.path(5)
    assert not is_adjacency_resolving_set(g, [0]).resolving
    assert is_adjacency_resolving_set(g, [0, 2])
    # both far vertices look identical from {0, 1}
    assert is_adjacency_resolving_set(g, [0, 1]).unresolved_pair == (3, 4)
    # entries are capped at 2, matching a strength-1 broadcast
    h = families.cycle(8)
    f = tuple(1 if v in (0, 3, 5) else 0 for v in range(8))
    assert bool(is_adjacency_resolving_set(h, [0, 3, 5])) == bool(
        is_resolving_broadcast(h, f)
    )


def test_counting_feasible():
    g = families.path(6)
    # support {0}, strength 2: 1 + 3 < 6
    assert not counting_feasible(g, (2, 0, 0, 0, 0, 0))
    # support {0, 3}, strengths (2, 1): 2 + 6 >= 6
    assert counting_feasible(g, (2, 0, 0, 1, 0, 0))
    assert counting_feasible(g, Broadcast((1, 1, 0, 1, 0, 0)))


def test_counting_floor_matches_its_definitions():
    # b = 2: the split search over every support size the oracle keeps.
    for n in range(1, 2001):
        assert counting_floor(n, 2) == seed_oracle._counting_lower_bound(n), n
    # Any base: the least k >= 1 with k + b**k >= n.
    for b in range(1, 7):
        for n in range(1, 200):
            assert counting_floor(n, b) == next(k for k in count(1) if k + b**k >= n), (n, b)


def _first_tie(codes):
    """The lex-first pair of vertices with equal codes, or None."""
    return next(((u, v) for u, v in combinations(range(len(codes)), 2) if codes[u] == codes[v]), None)


def test_set_checks_match_definitions_up_to_order_5():
    # Every landmark subset of every labelled graph of order <= 5: both set
    # predicates against codes built straight from the definitions (raw
    # distances with the sentinel; 0/1/2 from the adjacency relation), and
    # revalidate, which must reject each non-resolving subset as a dim, adim
    # and dim_2 witness and take a resolving one as adim iff its 0/1/2
    # codes differ.
    count = 0
    for g in labelled_graphs(5):
        n = g.n
        d = all_pairs_distances(g)
        near = [[0 if z == v else 1 if g.has_edge(z, v) else 2 for v in range(n)] for z in range(n)]
        for size in range(1, n + 1):
            for s in combinations(range(n), size):
                metric = _first_tie([tuple(d.dist[z][v] for z in s) for v in range(n)])
                adjacency = _first_tie([tuple(near[z][v] for z in s) for v in range(n)])
                verdict = is_resolving_set(g, s, d)
                assert (verdict.resolving, verdict.unresolved_pair) == (metric is None, metric)
                verdict = is_adjacency_resolving_set(g, s, d)
                assert (verdict.resolving, verdict.unresolved_pair) == (adjacency is None, adjacency)
                if metric is not None:
                    for kind, k in (("dim", None), ("adim", None), ("dim_k", 2)):
                        assert not revalidate(g, SolverResult(kind, size, s, 0, 1, 0), k=k, d=d)
                elif n > 1:
                    adim = SolverResult("adim", size, s, 0, 1, 0)
                    assert revalidate(g, adim, d=d) == (adjacency is None)
                count += 1
    assert count == 32_767


def test_broadcast_codes_table():
    g = families.path(5)
    d = all_pairs_distances(g)
    f = (1, 0, 1, 0, 0)
    table = broadcast_codes(g, d, f)
    assert table == [broadcast_code(g, d, f, v) for v in range(5)]
    assert table == broadcast_codes(g, None, Broadcast(f))
    for bad in ((0, 0, 0, 0, 0), (1, -1, 0, 0, 0), (1, 0, 0)):
        with pytest.raises(ValueError):
            broadcast_codes(g, d, bad)
    for v in (-1, 5):
        with pytest.raises(IndexError):
            broadcast_code(g, d, f, v)
