"""The verification harness itself: suite registry, context caching,
and the definition-direct enumerator it cross-checks against."""

import random
from itertools import product

import pytest

from resolvedim import build_graph, families
from resolvedim.verify import SUITES, VerifyContext, labelled_graphs, naive_min_broadcasts, run_suites


def test_all_suites_pass_at_small_scale():
    ctx = VerifyContext(max_order=3, samples=3, seed=0,
                        deletion_samples=5, tree_samples=5, flatten_per_case=1)
    results = run_suites(None, ctx)
    assert len(results) == len(SUITES)
    bad = [(r.suite, r.failures[:2]) for r in results if not r.ok]
    assert not bad, bad
    # Every suite's instance count at this context: a suite that drops or
    # gains an instance (an order filter off by one, a skipped source)
    # fails here even when all its checks pass.
    assert {r.suite: r.checked for r in results} == {
        "chain": 17, "diam-collapse": 9, "complement-adim": 17,
        "twin-distance": 17, "twin-support": 14, "truncation": 16,
        "counting-witness": 16, "broadcast-monotone": 16, "bdim-sandwich": 9,
        "deltaprime-ratio": 16, "order-bounds": 16, "characterizations": 17,
        "cap-safety": 16, "enumeration": 17, "flatten": 18,
        "family-formulas": 233, "tree-dim": 10, "tree-witness": 2,
        "tree-bdim": 9, "vertex-deletion": 5, "edge-deletion": 5, "dimk": 16,
        "sharp-families": 40,
    }


def test_suite_selection_and_unknown_id():
    ctx = VerifyContext(max_order=3, samples=2)
    results = run_suites(["truncation", "chain"], ctx)
    assert [r.suite for r in results] == ["truncation", "chain"]
    with pytest.raises(KeyError):
        run_suites(["nonsense"], ctx)


def test_naive_enumerator_spot_values():
    cost, vectors = naive_min_broadcasts(families.path(2))
    assert cost == 1
    assert vectors == ((0, 1), (1, 0))
    cost, vectors = naive_min_broadcasts(families.path(1))
    assert cost == 1
    assert vectors == ((1,),)
    cost, vectors = naive_min_broadcasts(families.kK2(2))
    assert cost == 2
    assert len(vectors) == 4
    assert all(sum(v) == 2 for v in vectors)
    with pytest.raises(ValueError):
        naive_min_broadcasts(build_graph(0, []))


def _product_filter_min_broadcasts(g):
    """The naive enumerator as it was: filter every vector with entries
    up to s for cost s, and compare the codes of each by the definition."""
    n = g.n
    inf = float("inf")
    dist = []
    for s in range(n):
        row = [inf] * n
        row[s] = 0
        queue = [s]
        for u in queue:
            for w in g.adjacency[u]:
                if row[w] == inf:
                    row[w] = row[u] + 1
                    queue.append(w)
        dist.append(row)

    def resolves(vec):
        supp = [z for z in range(n) if vec[z] > 0]
        return bool(supp) and len({tuple(min(dist[z][v], vec[z] + 1) for z in supp) for v in range(n)}) == n

    s = 1
    while True:
        found = [vec for vec in product(range(s + 1), repeat=n) if sum(vec) == s and resolves(vec)]
        if found:
            return s, tuple(found)
        s += 1


def test_naive_enumerator_matches_the_product_filter():
    # The vectors of each cost, made directly, are the ones the product
    # filter kept, in the same order: every labelled graph of order 1 to 4
    # and seeded graphs of order 6.
    rng = random.Random(6)
    graphs = [g for g in labelled_graphs(4) if g.n]
    graphs += [families.random_graph(6, p, rng.randrange(2**31)) for p in (0.2, 0.4, 0.6, 0.8) for _ in range(2)]
    for g in graphs:
        assert naive_min_broadcasts(g) == _product_filter_min_broadcasts(g), g.edges()


def test_naive_enumerator_shares_no_distance_code(monkeypatch):
    # The second route keeps its own BFS and truncation: it still runs with
    # the library's distances and truncated rows made to raise.
    import resolvedim
    from resolvedim.graphs import DistanceMatrix

    def refuse(*args):
        raise AssertionError("library distance code called")

    for modname in ("graphs", "verify"):
        module = getattr(resolvedim, modname)
        for name in ("all_pairs_distances", "truncated_row"):
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(DistanceMatrix, "truncated", refuse)
    monkeypatch.setattr(DistanceMatrix, "cut_row", refuse)
    assert naive_min_broadcasts(families.cycle(5)) == _product_filter_min_broadcasts(families.cycle(5))


def test_context_caches_solver_results():
    ctx = VerifyContext()
    g = families.petersen()
    first = ctx.result("bdim", g)
    assert ctx.result("bdim", g) is first
    assert ctx.solve("bdim", g) == first.value


def test_battery_composition():
    ctx = VerifyContext(max_order=3, samples=4)
    graphs = ctx.battery()
    # 1 + 2 + 8 labelled graphs on orders 1..3, then samples at 4 and 5
    assert len(graphs) == 11 + 2 * 4
    assert graphs is ctx.battery()
    orders = sorted({g.n for g in graphs})
    assert orders == [1, 2, 3, 4, 5]


def test_deletion_graphs_are_connected_and_seeded():
    ctx = VerifyContext(deletion_samples=6)
    first = [g.edges() for g in ctx.deletion_graphs()]
    second = [g.edges() for g in VerifyContext(deletion_samples=6).deletion_graphs()]
    assert first == second
    assert len(first) == 6


def test_context_refuses_bad_sizes():
    for sizes in ({"max_order": 0}, {"max_order": 7}, {"samples": -1}):
        with pytest.raises(ValueError):
            VerifyContext(**sizes)
    # The ends of the accepted range; no graph is built until asked.
    VerifyContext(max_order=1, samples=0)
    VerifyContext(max_order=6)


def test_battery_computes_twins_once_per_graph(monkeypatch):
    # Each graph the context memoises gets at most one BFS and one twin
    # partition, however many suites and solves read it: the flatten and
    # tree suites pass the memoised bundle on too.
    from collections import Counter

    import resolvedim
    from resolvedim import graphs

    twins, bfs = Counter(), Counter()
    partition, distances = graphs.twin_partition, graphs.all_pairs_distances

    def counted_twins(g):
        twins[g] += 1
        return partition(g)

    def counted_bfs(g):
        bfs[g] += 1
        return distances(g)

    # Every module of the package that binds a function gets its counter.
    for modname in ("formulas", "graphs", "resolution", "solvers", "verify"):
        module = getattr(resolvedim, modname)
        for name, fn, counted in (
            ("twin_partition", partition, counted_twins),
            ("all_pairs_distances", distances, counted_bfs),
        ):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    ctx = VerifyContext(max_order=4, samples=5, seed=0)
    results = run_suites(None, ctx)
    assert all(r.ok for r in results)
    memo = ctx._dist
    assert memo and all(twins[g] <= 1 and bfs[g] <= 1 for g in memo)
    assert sum(twins[g] for g in memo) > len(memo) // 2
    assert sum(bfs[g] for g in memo) == len(memo)


def test_graph_checks_spell_out_their_label_only_when_read(monkeypatch):
    from resolvedim import build_graph, verify
    from resolvedim.verify import Check

    g = build_graph(3, [(0, 1), (1, 2)])
    assert Check(g, False, "boom").instance == "n=3 edges=[(0, 1), (1, 2)]"
    assert Check("grid 2x2x2", False).instance == "grid 2x2x2"
    # A passing battery builds no label: only failures are reported.
    labels = []
    describe = verify._describe
    monkeypatch.setattr(verify, "_describe", lambda h: labels.append(h) or describe(h))
    results = run_suites(None, VerifyContext(max_order=3, samples=2, seed=0))
    assert all(r.ok for r in results) and not labels
