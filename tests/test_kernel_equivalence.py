"""The search-kernel solvers against the seed's exhaustive scans.

`seed_oracle` keeps the scans the solvers used before the incremental
kernel. Every solver must return the same value, witness, candidate count
and starting lower bound, and the enumerator the same broadcasts, also
where the kernel skips subtrees by class count or by the split cut and
counts their candidates without checking them.
"""

from __future__ import annotations

import random

import seed_oracle
from resolvedim import (
    all_pairs_distances,
    disjoint_union,
    enumerate_min_broadcasts,
    families,
    metric_profile,
    solve_adim,
    solve_bdim,
    solve_dim,
    solve_dim_k,
    twin_partition,
)
from resolvedim.graphs import truncated_row
from resolvedim import solvers
from resolvedim.solvers import _class_cuts, _pair_covers, _pair_table, _separable
from resolvedim.verify import labelled_graphs


def _fields(res):
    return res.value, res.witness, res.candidates_examined, res.lower_bound_used


def _assert_same_solves(g, d=None):
    """Compare every solver with the oracle on g, and return the bdim result."""
    if d is None:
        d = all_pairs_distances(g)
    adim_oracle = seed_oracle.solve_dim_k(g, 1, d)  # adim is dim_1
    bdim = solve_bdim(g, d)
    pairs = [
        ("dim", solve_dim(g, d), seed_oracle.solve_dim(g, d)),
        ("adim", solve_adim(g, d), adim_oracle),
        ("bdim", bdim, seed_oracle.solve_bdim(g, d)),
        ("dim_1", solve_dim_k(g, 1, d), adim_oracle),
    ]
    pairs += [
        (f"dim_{k}", solve_dim_k(g, k, d), seed_oracle.solve_dim_k(g, k, d)) for k in (2, 3)
    ]
    for kind, new, old in pairs:
        assert _fields(new) == _fields(old), f"{kind} on n={g.n} edges={g.edges()}"
    return bdim


def test_every_labelled_graph_up_to_order_5():
    count = 0
    for g in labelled_graphs(5):
        d = all_pairs_distances(g)
        bdim = _assert_same_solves(g, d)
        new = enumerate_min_broadcasts(g, d)
        assert new == seed_oracle.enumerate_min_broadcasts(g, d), f"n={g.n} edges={g.edges()}"
        # The enumerator is bdim's search collecting every resolving
        # vector: its cost is the value and its first broadcast the witness.
        assert (new.optimal_cost, new.broadcasts[0]) == (bdim.value, bdim.witness.values), (
            f"n={g.n} edges={g.edges()}"
        )
        count += 1
    assert count == 1 + 2 + 8 + 64 + 1024


def test_seeded_random_graphs_and_trees():
    rng = random.Random(20050731)
    for n in range(6, 10):
        for _ in range(8):
            p = rng.uniform(0.1, 0.7)
            _assert_same_solves(families.random_graph(n, p, rng.randrange(2**31)))
            _assert_same_solves(families.random_tree(n, rng.randrange(2**31)))
        # A disconnected graph of every order: these take the
        # finite-eccentricity branch of the broadcast caps.
        g = disjoint_union(families.random_tree(n - 3, n), families.path(3))
        assert not metric_profile(g).connected
        _assert_same_solves(g)


def test_cycle_and_path_of_order_10():
    _assert_same_solves(families.cycle(10))
    _assert_same_solves(families.path(10))


def test_class_count_cut_counts_what_it_skips():
    # Cycles and paths where the class-count cut or the split cut skips
    # subtrees: the count of what they skipped must keep every field
    # equal to the oracle's.
    c12, c13, c14, c16 = (families.cycle(n) for n in (12, 13, 14, 16))
    p12, p14 = families.path(12), families.path(14)
    cases = [(solve_bdim, seed_oracle.solve_bdim, g, True) for g in (c12, c13, p12)]
    adim, adim_oracle = solve_adim, lambda g, d: seed_oracle.solve_dim_k(g, 1, d)
    cases += [(adim, adim_oracle, g, True) for g in (c12, c14, p12, p14)]
    dim2, dim2_oracle = (lambda g, d: solve_dim_k(g, 2, d)), (lambda g, d: seed_oracle.solve_dim_k(g, 2, d))
    # On C12 neither cut skips a subtree; on C14 the split cut does,
    # and on C16 both do.
    cases += [(dim2, dim2_oracle, g, g.n > 12) for g in (c12, c14, c16)]
    for solve, oracle, g, cuts in cases:
        d = all_pairs_distances(g)
        new = solve(g, d)
        assert _fields(new) == _fields(oracle(g, d)), f"{new.kind} on n={g.n} edges={g.edges()}"
        assert (new.candidates_checked < new.candidates_examined) == cuts
    # The enumerator cuts on C10 and P10 too, and must still list every
    # minimum broadcast.
    for g in (families.cycle(10), families.path(10)):
        d = all_pairs_distances(g)
        assert enumerate_min_broadcasts(g, d) == seed_oracle.enumerate_min_broadcasts(g, d)


def test_class_count_cut_on_trees_with_twin_leaves():
    # Twin leaves bring twin groups into the counting walk and its memo
    # key; the cycles and paths above have none. Every solve that enters
    # counting mode, whichever cut sent it there, is checked against the
    # oracle.
    adim_oracle = lambda g, d: seed_oracle.solve_dim_k(g, 1, d)
    kinds = ((solve_bdim, seed_oracle.solve_bdim), (solve_adim, adim_oracle))
    solves = cut = 0
    for n in (12, 13):
        for seed in range(40):
            g = families.random_tree(n, seed)
            if not any(len(grp) > 1 for grp in twin_partition(g).groups):
                continue
            d = all_pairs_distances(g)
            for solve, oracle in kinds:
                new = solve(g, d)
                solves += 1
                if new.candidates_checked < new.candidates_examined:
                    cut += 1
                    assert _fields(new) == _fields(oracle(g, d)), f"{new.kind} on tree n={n} seed={seed}"
    assert (solves, cut) == (2 * 47, 93)


def test_pair_separation_test_matches_the_scan():
    # Called without the solvers' gate, at every budget: some `budget`
    # landmarks separate every pair exactly when the scan's value is at
    # most the budget.
    rng = random.Random(19961030)
    graphs = [g for g in labelled_graphs(5) if g.n > 1]
    graphs += [families.random_graph(n, rng.uniform(0.1, 0.7), rng.randrange(2**31)) for n in range(6, 10) for _ in range(8)]
    for g in graphs:
        n = g.n
        d = all_pairs_distances(g)
        for k, oracle in ((n - 1, seed_oracle.solve_dim), (1, None), (2, None), (3, None)):
            value = (oracle(g, d) if oracle else seed_oracle.solve_dim_k(g, k, d)).value
            rows = [truncated_row(row, k, n) for row in d.dist]
            seps, covers = _pair_table(rows), _pair_covers(rows)
            for budget in range(1, n):
                assert _separable(seps, covers, budget) == (budget >= value), (
                    f"k={k} budget={budget} n={n} edges={g.edges()}"
                )


def test_solves_that_prove_levels_empty():
    # With the class cut idle, these solves prove the levels from the
    # first one with more candidates than the pair table has entries up
    # to the value empty, and count their candidates instead of checking
    # them: every field still matches the oracle.
    dim2, dim2_oracle = (lambda g, d: solve_dim_k(g, 2, d)), (lambda g, d: seed_oracle.solve_dim_k(g, 2, d))
    adim_oracle = lambda g, d: seed_oracle.solve_dim_k(g, 1, d)
    cases = [(solve_dim, seed_oracle.solve_dim, 25, families.random_graph(26, 0.3, s)) for s in (0, 3, 8)]
    cases += [
        (solve_adim, adim_oracle, 1, families.random_graph(17, 0.35, 1)),
        (solve_adim, adim_oracle, 1, families.random_tree(14, 3)),
        (dim2, dim2_oracle, 2, families.random_tree(17, 6)),
    ]
    for solve, oracle, k, g in cases:
        d = all_pairs_distances(g)
        new = solve(g, d)
        assert _fields(new) == _fields(oracle(g, d)), f"{new.kind} on n={g.n} edges={g.edges()}"
        assert new.candidates_checked < new.candidates_examined
        # The class cut skips nothing here, so the proof made the gap.
        assert not any(_class_cuts((None, [truncated_row(row, k, g.n) for row in d.dist]), g.n, g.n))
    # The class cut works on adim of C17 and P17, so the proof leaves them
    # alone; the class and split cuts leave these candidates checked.
    assert solve_adim(families.cycle(17)).candidates_checked == 573
    assert solve_adim(families.path(17)).candidates_checked == 592


def test_no_pair_table_when_the_scan_ends_first(monkeypatch):
    # Below the first proved level the scan runs as before, and a witness
    # there ends the solve: a path of order 300 passes the gate (L = 4,
    # a table of 13 million entries) but resolves at level 1.
    def refuse(rows):
        raise AssertionError("pair table built")

    monkeypatch.setattr(solvers, "_pair_table", refuse)
    res = solve_dim(families.path(300))
    assert (res.value, res.witness, res.candidates_checked) == (1, (0,), 1)


def test_split_cut_keeps_every_field(monkeypatch):
    # The benchmark ladder's instances (bdim C16, P14 and the 3x5 grid,
    # adim C17 and P17, dim of G(26, 0.3) on every seed it draws) and bdim
    # C18 and P16, field for field against the oracle.
    adim_oracle = lambda g, d: seed_oracle.solve_dim_k(g, 1, d)
    cases = [
        ("bdim C16", solve_bdim, seed_oracle.solve_bdim, families.cycle(16)),
        ("bdim P14", solve_bdim, seed_oracle.solve_bdim, families.path(14)),
        ("bdim grid", solve_bdim, seed_oracle.solve_bdim, families.grid((3, 5))),
        ("bdim C18", solve_bdim, seed_oracle.solve_bdim, families.cycle(18)),
        ("bdim P16", solve_bdim, seed_oracle.solve_bdim, families.path(16)),
        ("adim C17", solve_adim, adim_oracle, families.cycle(17)),
        ("adim P17", solve_adim, adim_oracle, families.path(17)),
    ]
    for seed in (0, 3, 5, 8, 9, 10, 11, 15, 24, 27, 28, 33, 36, 39, 43, 44):
        cases.append((f"dim G26 seed {seed}", solve_dim, seed_oracle.solve_dim, families.random_graph(26, 0.3, seed)))
    solved = {}
    for label, solve, oracle, g in cases:
        d = all_pairs_distances(g)
        solved[label] = new = solve(g, d)
        assert _fields(new) == _fields(oracle(g, d)), label
    # The split cut skips subtrees on bdim P14 and adim P17: with class
    # lists that split every pair it skips none, and more candidates are
    # checked for the same fields as the oracle's above.
    def split_all(rows, caps, base, r):
        return [list(range(len(caps)))] * len(caps)

    monkeypatch.setattr(solvers, "_split_classes", split_all)
    for label, solve, _, g in (cases[1], cases[6]):
        new = solve(g)
        assert new.candidates_checked > solved[label].candidates_checked, label
        assert _fields(new) == _fields(solved[label]), label


def test_bdim_never_builds_a_pair_table(monkeypatch):
    # Only the set proof reads pair tables; bdim and the enumerator cut
    # with the split cut's class lists alone, and solve as before.
    def refuse(*args):
        raise AssertionError("built")

    graphs = [families.grid((3, 5)), families.cycle(16), families.path(14)]
    c10 = families.cycle(10)
    before = [solve_bdim(g) for g in graphs], enumerate_min_broadcasts(c10)
    monkeypatch.setattr(solvers, "_pair_table", refuse)
    assert ([solve_bdim(g) for g in graphs], enumerate_min_broadcasts(c10)) == before
    # The split cut's gate: no solve of a graph of order 5 or less checks
    # as many candidates as the class lists it would build have entries.
    monkeypatch.setattr(solvers, "_split_classes", refuse)
    for g in labelled_graphs(5):
        d = all_pairs_distances(g)
        for solve in (solve_dim, solve_adim, solve_bdim, enumerate_min_broadcasts):
            solve(g, d)
        for k in (2, 3):
            solve_dim_k(g, k, d)
