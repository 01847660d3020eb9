"""The verification harness itself: suite registry, context caching,
and the definition-direct enumerator it cross-checks against."""

import pytest

from resolvedim import families
from resolvedim.verify import SUITES, VerifyContext, naive_min_broadcasts, run_suites


def test_all_suites_pass_at_small_scale():
    ctx = VerifyContext(max_order=3, samples=3, seed=0,
                        deletion_samples=5, tree_samples=5, flatten_per_case=1)
    results = run_suites(None, ctx)
    assert len(results) == len(SUITES)
    bad = [(r.suite, r.failures[:2]) for r in results if not r.ok]
    assert not bad, bad
    assert all(r.checked > 0 for r in results)


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
    from collections import Counter

    import resolvedim
    from resolvedim import graphs, verify

    twins = Counter()
    partition = graphs.twin_partition
    flatten = verify.flatten_path_cycle_broadcast
    flattening = []

    def counted(g):
        if not flattening:
            twins[g] += 1
        return partition(g)

    def flatten_apart(g, f):
        # Flattening takes no distance matrix and builds its own, whose
        # twins its fallback solve computes; those are not the memo's.
        flattening.append(g)
        try:
            return flatten(g, f)
        finally:
            flattening.pop()

    # Every module of the package that binds the function gets the counter.
    for modname in ("formulas", "graphs", "resolution", "solvers", "verify"):
        module = getattr(resolvedim, modname)
        if getattr(module, "twin_partition", None) is partition:
            monkeypatch.setattr(module, "twin_partition", counted)
    monkeypatch.setattr(verify, "flatten_path_cycle_broadcast", flatten_apart)
    ctx = VerifyContext(max_order=4, samples=5, seed=0)
    results = run_suites(None, ctx)
    assert all(r.ok for r in results)
    memo = ctx._dist
    assert memo and all(twins[g] <= 1 for g in memo)
    assert sum(twins[g] for g in memo) > len(memo) // 2
