"""The search-kernel solvers against the seed's exhaustive scans.

`seed_oracle` keeps the scans the solvers used before the incremental
kernel. Every solver must return the same value, witness, candidate count
and starting lower bound, and the enumerator the same broadcasts, also
where the kernel skips subtrees by class count, by the split cut or by
the branch and bound over the pair tables, and counts their candidates
without checking them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace
from functools import reduce
from itertools import combinations, count, product, repeat
from math import comb
from operator import ne, or_

import pytest
import seed_oracle
from resolvedim import (
    all_pairs_distances,
    build_graph,
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
from resolvedim.solvers import (
    _class_gains,
    _cost_ways,
    _counting_idle,
    _grow_class_bound,
    _pair_tables,
    _separable,
    _twin_debt,
    _twin_subsets,
    broadcast_value_caps,
)
from resolvedim.resolution import counting_floor
from resolvedim.verify import labelled_graphs


def _fields(res):
    return res.value, res.witness, res.candidates_examined, res.lower_bound_used


def _solve_all(g, d):
    """Every solver's result on g, and the enumerator's."""
    return {
        "dim": solve_dim(g, d),
        "adim": solve_adim(g, d),
        "bdim": solve_bdim(g, d),
        "dim_1": solve_dim_k(g, 1, d),
        "dim_2": solve_dim_k(g, 2, d),
        "dim_3": solve_dim_k(g, 3, d),
        "enum": enumerate_min_broadcasts(g, d),
    }


def _solve_sets(g, d):
    """The set solvers' results on g."""
    return {
        "dim": solve_dim(g, d),
        "adim": solve_adim(g, d),
        "dim_1": solve_dim_k(g, 1, d),
        "dim_2": solve_dim_k(g, 2, d),
        "dim_3": solve_dim_k(g, 3, d),
    }


def _assert_same_solves(g, d=None, enum_oracle=None):
    """Compare every solver with the oracle on g, and the enumerator with
    `enum_oracle` if given, else with its own default run; return the
    three runs' results (`_solve_all`, and `_solve_sets` for the third).

    Each solve runs twice: as it is, and with the class-count bound made
    from the first node on, which its gate and the idle rule otherwise
    keep off on graphs this small. The set solves run a third time, with
    every level proved, then walked, over the pair tables, which
    `_proving` and `_proof_first` otherwise keep for the large levels of
    orders 11 and more. The oracle runs once."""
    if d is None:
        d = all_pairs_distances(g)
    adim_oracle = seed_oracle.solve_dim_k(g, 1, d)  # adim is dim_1
    oracle = {
        "dim": seed_oracle.solve_dim(g, d),
        "adim": adim_oracle,
        "bdim": seed_oracle.solve_bdim(g, d),
        "dim_1": adim_oracle,
        "dim_2": seed_oracle.solve_dim_k(g, 2, d),
        "dim_3": seed_oracle.solve_dim_k(g, 3, d),
    }
    plain = _solve_all(g, d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_bound_gate", lambda caps: 0)
        mp.setattr(solvers, "_counting_idle", lambda ones, n: False)
        forced = _solve_all(g, d)
        mp.setattr(solvers, "_proving", lambda n, broadcast: True)
        mp.setattr(solvers, "_proof_first", lambda n, slack, cost, broadcast: True)
        steered = _solve_sets(g, d)
    if enum_oracle is None:
        enum_oracle = plain["enum"]
    for run in (plain, forced, steered):
        for kind, solved in run.items():
            if kind != "enum":
                assert _fields(solved) == _fields(oracle[kind]), f"{kind} on n={g.n} edges={g.edges()}"
    for run in (plain, forced):
        assert run["enum"] == enum_oracle, f"n={g.n} edges={g.edges()}"
    return plain, forced, steered


def _twin_rule_subsets(n, groups, size):
    """The size-subsets of range(n) that leave at most one member of each
    group out, by brute force."""
    return sum(all(len(set(grp) - set(s)) <= 1 for grp in groups) for s in combinations(range(n), size))


def _floor_of(d, k):
    """The counting floor of the landmark rows of d truncated at k + 1, by
    its definition: the least size s with s + b**s >= n, for the b
    distinct nonzero entries of the rows."""
    n = len(d.dist)
    b = len({e for row in d.dist for e in truncated_row(row, k, n)} - {0})
    return next(s for s in count(1) if s + b**s >= n)


def _below_floor(g, d, k):
    """The candidates on the levels below the counting floor of g's
    landmark rows truncated at k + 1, from the twin bound up: the
    twin-rule subsets of each size, by brute force. A set solve from order
    7 on counts these levels without checking them."""
    lb = max(1, d.twins.forced_minimum())
    return sum(_twin_rule_subsets(g.n, d.twins.groups, s) for s in range(lb, _floor_of(d, k)))


def _unchecked(plain, forced):
    """How many fewer candidates the solvers of `forced` checked than those
    of `plain`."""
    return sum(plain[kind].candidates_checked - forced[kind].candidates_checked for kind in forced if kind != "enum")


def test_every_labelled_graph_up_to_order_5():
    count = unchecked = pruned = 0
    for g in labelled_graphs(5):
        d = all_pairs_distances(g)
        plain, forced, steered = _assert_same_solves(g, d, seed_oracle.enumerate_min_broadcasts(g, d))
        unchecked += _unchecked(plain, forced)
        pruned += _unchecked(plain, steered)
        bdim, new = plain["bdim"], plain["enum"]
        # The enumerator is bdim's search collecting every resolving
        # vector: its cost is the value and its first broadcast the witness.
        assert (new.optimal_cost, new.broadcasts[0]) == (bdim.value, bdim.witness.values), (
            f"n={g.n} edges={g.edges()}"
        )
        count += 1
    assert count == 1 + 2 + 8 + 64 + 1024
    # The forced bound did cut, and so did the branch and bound that
    # steers the walk over the pair tables.
    assert unchecked > 0
    assert pruned > 0


def _seeded_graphs():
    """G(n, p) graphs and trees of orders 6..9, and one disconnected graph
    of each order."""
    rng = random.Random(20050731)
    graphs = []
    for n in range(6, 10):
        for _ in range(8):
            p = rng.uniform(0.1, 0.7)
            graphs.append(families.random_graph(n, p, rng.randrange(2**31)))
            graphs.append(families.random_tree(n, rng.randrange(2**31)))
        # A disconnected graph of every order: these take the
        # finite-eccentricity branch of the broadcast caps.
        g = disjoint_union(families.random_tree(n - 3, n), families.path(3))
        assert not metric_profile(g).connected
        graphs.append(g)
    return graphs


def test_seeded_random_graphs_and_trees():
    graphs = _seeded_graphs()
    unchecked = pruned = 0
    for g in graphs:
        plain, forced, steered = _assert_same_solves(g)
        unchecked += _unchecked(plain, forced)
        pruned += _unchecked(plain, steered)
        bdim, new = plain["bdim"], plain["enum"]
        assert (new.optimal_cost, new.broadcasts[0]) == (bdim.value, bdim.witness.values)
    assert unchecked > 0
    assert pruned > 0


def test_class_count_bound_holds_for_every_completion():
    # best[r][z] bounds the classes that any strengths of total cost r on
    # the vertices above z, within the caps, add to the codes of any
    # prefix; gain[v][z] bounds what row (z, v) adds. Checked by brute
    # force on broadcast rows and on adjacency rows (a set at strength 1).
    rng = random.Random(20200515)
    graphs = [g for g in labelled_graphs(4) if g.n > 1]
    graphs += [families.random_graph(n, rng.uniform(0.2, 0.6), rng.randrange(2**31)) for n in (5, 6, 7) for _ in range(3)]
    graphs += [families.random_tree(7, 4), families.cycle(7), disjoint_union(families.path(4), families.path(3))]
    upto = 4

    def classes(rows, vec):
        return len(set(zip(*(rows[v][z] for z, v in enumerate(vec) if v)))) if any(vec) else 1

    def completions(caps, z, r):
        # Every strength vector on the vertices above z of total cost r.
        if z == len(caps) - 1:
            if r == 0:
                yield ()
            return
        for v in range(min(r, caps[z + 1]) + 1):
            for rest in completions(caps, z + 1, r - v):
                yield (v, *rest)

    for g in graphs:
        n = g.n
        d = all_pairs_distances(g)
        caps = broadcast_value_caps(g, d)
        broadcast = [None] + [
            [truncated_row(drow, i, n) if i <= cap else None for drow, cap in zip(d.dist, caps)]
            for i in range(1, max(caps) + 1)
        ]
        adjacency = (None, [truncated_row(drow, 1, n) for drow in d.dist])
        for rows, caps in ((broadcast, caps), (adjacency, (1,) * n)):
            gain, above = _class_gains(rows, n)
            best = [[0] * n]
            _grow_class_bound(best, above, upto + 1)
            # Grown a level at a time, as the search grows it, it is the same.
            steps = [[0] * n]
            for size in range(upto + 2):
                _grow_class_bound(steps, above, size)
            assert steps == best
            for z in range(n):
                for _ in range(3):
                    prefix = [rng.randint(0, caps[x]) for x in range(z)]
                    base = classes(rows, prefix + [0] * (n - z))
                    for v in range(1, caps[z] + 1):
                        at = prefix + [v] + [0] * (n - z - 1)
                        assert classes(rows, at) - base <= gain[v][z], (g.edges(), at)
                    for r in range(upto + 1):
                        for rest in completions(caps, z, r):
                            vec = prefix + [0] + list(rest)
                            assert classes(rows, vec) - base <= best[r][z], (g.edges(), vec, r)


def test_cost_ways_match_a_brute_force_count():
    # ways[i][r] counts the strength vectors of cost r on vertices i.. within
    # the caps: checked by brute force on random cap lists of length 0 to 7,
    # caps 1 to 4, at every level up to cost 6 and from a random first row;
    # all-1 caps give binomials.
    rng = random.Random(19930407)
    upto = 6
    for length in range(8):
        for _ in range(12):
            caps = [rng.randint(1, 4) for _ in range(length)]
            brute = []
            for i in range(length + 1):
                costs = Counter(map(sum, product(*(range(cap + 1) for cap in caps[i:]))))
                brute.append([costs[r] for r in range(upto + 1)])
            for level in range(upto + 1):
                assert _cost_ways(caps, level) == [row[: level + 1] for row in brute], (caps, level)
            # The rows below `low` are left out.
            low = rng.randint(0, length)
            assert _cost_ways(caps, upto, low) == [None] * low + brute[low:], (caps, low)
        ones = [1] * length
        assert _cost_ways(ones, upto) == [[comb(length - i, r) for r in range(upto + 1)] for i in range(length + 1)]


def test_twin_subsets_match_a_brute_force_count():
    # A set level proved empty is counted in closed form, from the twin
    # rule's subset polynomial: size by size, it gives the subsets that
    # leave at most one member of each twin group out, counted by brute
    # force, on every labelled graph of order 5 or less and on the first 8
    # seeded random trees of each order 6 to 9 whose twin groups force two
    # or more landmarks.
    trees = []
    for n in range(6, 10):
        forced = (t for t in map(families.random_tree, repeat(n), count()) if twin_partition(t).forced_minimum() >= 2)
        trees += [next(forced) for _ in range(8)]
    for g in list(labelled_graphs(5)) + trees:
        groups = twin_partition(g).groups
        masks = [sum(1 << v for v in grp) for grp in groups if len(grp) > 1]
        assert _twin_subsets(g.n, masks) == [_twin_rule_subsets(g.n, groups, s) for s in range(g.n + 1)], g.edges()


def _floored_sets(g, d):
    """dim, adim and dim_2 of g, with their truncations."""
    return (solve_dim(g, d), g.n - 1), (solve_adim(g, d), 1), (solve_dim_k(g, 2, d), 2)


def _oracle_sets(g, d):
    """The oracle's dim, adim and dim_2 of g."""
    return seed_oracle.solve_dim(g, d), seed_oracle.solve_dim_k(g, 1, d), seed_oracle.solve_dim_k(g, 2, d)


def test_counting_floor_keeps_every_field(monkeypatch):
    # A set solve counts the levels below its counting floor whole, without
    # scanning them. dim, adim and dim_2 keep every field but the checked
    # and built counts, against the oracle and against the solve with the
    # floor off: on every labelled graph of order 5 or less, with the floor
    # on at every order, and on seeded dense G(n, p) of orders 9 to 40 (the
    # oracle up to order 20, past which its scans take seconds).
    rng = random.Random(20261021)
    dense = [
        families.random_graph(n, rng.uniform(0.5, 0.75), rng.randrange(2**31))
        for n in (9, 10, 11, 12, 14, 16, 18, 20, 25, 30, 35, 40)
        for _ in range(3)
    ]
    floored = []
    raised = Counter()
    for g in list(labelled_graphs(5)) + dense:
        if g.n == 1:
            continue
        d = all_pairs_distances(g)
        with monkeypatch.context() as mp:
            if g.n <= 5:
                mp.setattr(solvers, "_floored", lambda n: True)
            solved = _floored_sets(g, d)
        floored.append((g, d, solved))
        raised[g.n <= 5] += sum(_floor_of(d, k) > max(1, d.twins.forced_minimum()) for _, k in solved)
        if g.n <= 20:
            for (res, _), oracle in zip(solved, _oracle_sets(g, d)):
                assert _fields(res) == _fields(oracle), f"{res.kind} on n={g.n} edges={g.edges()}"
    # The floor lies above the twin bound in 1,956 of the 3,294 labelled
    # solves of orders 2 to 5 and in all 108 dense ones.
    assert raised == {True: 1956, False: 108}
    monkeypatch.setattr(solvers, "_floored", lambda n: False)
    for g, d, solved in floored:
        for (res, _), off in zip(solved, _floored_sets(g, d)):
            assert _fields(res) == _fields(off[0]), f"{res.kind} on n={g.n} edges={g.edges()}"


def test_levels_below_the_floor_build_and_check_nothing(monkeypatch):
    # A set search started at lb below its counting floor checks the same
    # candidates and builds the same nodes as the same search started at
    # the floor: the levels below are counted, and their candidates, by
    # brute force, are all it adds to those examined. From order 11 on
    # both prove and walk the same levels over the pair tables, since
    # `_proof_first` reads a level's cost, not where the search started;
    # below it both scan every level. Seeded G(n, p) and random trees of
    # orders 9 to 14, each at k = 1, 2 and n - 1.
    rng = random.Random(19960101)
    graphs = [families.random_graph(n, rng.uniform(0.3, 0.7), rng.randrange(2**31)) for n in range(9, 15) for _ in range(3)]
    graphs += [families.random_tree(n, rng.randrange(2**31)) for n in range(9, 15) for _ in range(2)]
    compared = 0
    for g in graphs:
        n = g.n
        d = all_pairs_distances(g)
        lb = max(1, d.twins.forced_minimum())
        for k in (1, 2, n - 1):
            rows = [truncated_row(row, k, n) for row in d.dist]
            floor = _floor_of(d, k)
            if floor <= lb:
                continue
            full = solvers._search((None, rows), (1,) * n, lb, d.twins.groups)
            start = solvers._search((None, rows), (1,) * n, floor, d.twins.groups)
            cost, examined, checked, built, found = full
            assert (cost, checked, built, found) == (start[0], *start[2:]), f"k={k} n={n} edges={g.edges()}"
            assert examined == start[1] + _below_floor(g, d, k), f"k={k} n={n} edges={g.edges()}"
            compared += 1
    assert compared == 86


def test_complete_graphs_sit_on_their_counting_floor():
    # Every nonzero entry of a complete graph's rows is 1, so at any
    # truncation the counting floor is counting_floor(n, 1) = n - 1: the
    # twin bound, as all n vertices are twins, and the value.
    for n in range(2, 13):
        g = families.complete(n)
        d = all_pairs_distances(g)
        assert set().union(*d.dist) == {0, 1}
        assert counting_floor(n, 1) == n - 1 == d.twins.forced_minimum()
        for res, _ in _floored_sets(g, d):
            assert (res.value, res.lower_bound_used) == (n - 1, n - 1), (res.kind, n)


def test_twin_debt_matches_the_twin_rule():
    # The twin rule: a vector leaves at most one member of each twin group
    # at strength 0. At a node whose last support vertex is `last` and
    # whose unchosen members are `free`, the completions are the vertex
    # sets S above `last` that leave at most one free member of each group
    # unchosen. By brute force over them, on random groups of n <= 8
    # vertices and every node state the walk can reach (every member
    # above `last` free, at most one free member of a group up to it):
    # `owed` is the fewest members any completion chooses, z > last starts
    # one exactly when z < hi, and then the fewest members it chooses
    # besides z is owed less 1 if z is in `owing`.
    rng = random.Random(20261020)
    for _ in range(40):
        n = rng.randint(1, 8)
        order = rng.sample(range(n), n)
        masks = []
        while len(order) >= 2 and rng.random() < 0.8:
            size = rng.randint(2, min(4, len(order)))
            masks.append(sum(1 << v for v in order[:size]))
            order = order[size:]
        members = sum(masks)
        for last in range(-1, n):
            below = members & ((1 << (last + 1)) - 1)
            sets = [
                sum(1 << v for v in vs)
                for size in range(n - last)
                for vs in combinations(range(last + 1, n), size)
            ]
            for kept in range(1 << n):
                if kept & ~below:
                    continue
                free = kept | (members & ~below)
                if any((free & below & m).bit_count() > 1 for m in masks):
                    continue
                hi, owed, owing = _twin_debt(masks, free, n)
                ok = [s for s in sets if all((free & m & ~s).bit_count() <= 1 for m in masks)]
                assert owed == min((s & members).bit_count() for s in ok), (masks, last, free)
                for z in range(last + 1, n):
                    starts = [s for s in ok if s & -s == 1 << z]
                    assert bool(starts) == (z < hi), (masks, last, free, z)
                    if starts:
                        fewest = min((s & members & ~(1 << z)).bit_count() for s in starts)
                        assert fewest == owed - (owing >> z & 1), (masks, last, free, z)


def test_twin_members_low_or_high_keep_every_field():
    # The cost table counts below a cut only above the highest twin-group
    # member. The same trees, numbered with their twin leaves first (the
    # table counts almost every cut subtree) and last (it counts none, and
    # the counting walk counts them all), match the oracle field for field.
    adim_oracle = lambda g, d: seed_oracle.solve_dim_k(g, 1, d)
    kinds = ((solve_bdim, seed_oracle.solve_bdim), (solve_adim, adim_oracle), (solve_dim, seed_oracle.solve_dim))
    # The first three seeds whose tree has twin leaves.
    for n, seeds in ((12, (0, 5, 8)), (14, (0, 1, 2))):
        for seed in seeds:
            tree = families.random_tree(n, seed)
            members = sorted(v for grp in twin_partition(tree).groups if len(grp) > 1 for v in grp)
            assert members, (n, seed)
            rest = [v for v in range(n) if v not in members]
            for order in (members + rest, rest + members):
                label = {v: i for i, v in enumerate(order)}
                g = build_graph(n, [(label[u], label[v]) for u, v in tree.edges()])
                d = all_pairs_distances(g)
                for solve, oracle in kinds:
                    new = solve(g, d)
                    assert _fields(new) == _fields(oracle(g, d)), f"{new.kind} on tree n={n} seed={seed} order={order}"


def test_cycle_and_path_of_order_10():
    _assert_same_solves(families.cycle(10))
    _assert_same_solves(families.path(10))


def test_class_count_cut_counts_what_it_skips():
    # Cycles and paths where the class-count bound or the split cut skips
    # subtrees: the count of what they skipped must keep every field
    # equal to the oracle's. A set solve also counts the levels below its
    # counting floor without checking them, cut or no cut, so a cut shows
    # as fewer candidates checked than those examined on the other levels.
    c12, c13, c14, c16 = (families.cycle(n) for n in (12, 13, 14, 16))
    p12, p14 = families.path(12), families.path(14)
    cases = [(solve_bdim, seed_oracle.solve_bdim, None, g, True) for g in (c12, c13, p12)]
    adim, adim_oracle = solve_adim, lambda g, d: seed_oracle.solve_dim_k(g, 1, d)
    cases += [(adim, adim_oracle, 1, g, True) for g in (c12, c14, p12, p14)]
    dim2, dim2_oracle = (lambda g, d: solve_dim_k(g, 2, d)), (lambda g, d: seed_oracle.solve_dim_k(g, 2, d))
    # On C12 neither cut skips a subtree; on C14 and C16 the class-count
    # bound does.
    cases += [(dim2, dim2_oracle, 2, g, g.n > 12) for g in (c12, c14, c16)]
    for solve, oracle, k, g, cuts in cases:
        d = all_pairs_distances(g)
        new = solve(g, d)
        assert _fields(new) == _fields(oracle(g, d)), f"{new.kind} on n={g.n} edges={g.edges()}"
        below = 0 if k is None else _below_floor(g, d, k)
        assert (k is None) == (below == 0), f"{new.kind} on n={g.n}"
        assert (new.candidates_checked < new.candidates_examined - below) == cuts, f"{new.kind} on n={g.n}"
    # The enumerator cuts on C10 and P10 too, and must still list every
    # minimum broadcast.
    for g in (families.cycle(10), families.path(10)):
        d = all_pairs_distances(g)
        assert enumerate_min_broadcasts(g, d) == seed_oracle.enumerate_min_broadcasts(g, d)


def test_class_count_cut_on_trees_with_twin_leaves():
    # Twin leaves bring twin groups into the counting walk and its memo
    # key; the cycles and paths above have none. Every solve is checked
    # against the oracle, whether or not a cut sent it into counting mode.
    # Every bdim solve here makes its class-count bound before its first
    # level, and the adim solves cut too, so all 94 count some candidates.
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
                cut += new.candidates_checked < new.candidates_examined
                assert _fields(new) == _fields(oracle(g, d)), f"{new.kind} on tree n={n} seed={seed}"
    assert (solves, cut) == (2 * 47, 94)


def test_cover_proof_keeps_every_field(monkeypatch):
    # From order 11 on, bdim proves a level empty by pair covers before it
    # scans it when the class-count bound is far from cutting. On random
    # trees and G(n, p) at orders 11 to 14, every field matches the
    # oracle's and the solve's with the proof off, and so does the
    # enumerator's list. The twin-leaf trees of the test above, whose bdim
    # solves it checks against the oracle, are compared with the proof off.
    rng = random.Random(20161024)
    twin_trees = [
        g
        for n in (12, 13)
        for g in map(families.random_tree, repeat(n), range(40))
        if any(len(grp) > 1 for grp in twin_partition(g).groups)
    ]
    graphs = [families.random_tree(n, rng.randrange(2**31)) for n in (11, 14) for _ in range(4)]
    graphs += [families.random_graph(n, rng.uniform(0.2, 0.5), rng.randrange(2**31)) for n in (11, 12, 13, 14) for _ in range(5)]
    ruled_out = []
    separable = solvers._separable

    def spy(seps, covers, caps, budget, open_, avail):
        found = separable(seps, covers, caps, budget, open_, avail)
        # A level's proof is the root call: every pair open, every
        # landmark available. The walk of a level it does not rule out
        # calls the branch and bound below the root too.
        if open_ == (1 << len(seps)) - 1 and avail == (1 << len(caps)) - 1:
            ruled_out.append(not found)
        return found

    monkeypatch.setattr(solvers, "_separable", spy)
    proved = []
    for g in twin_trees + graphs:
        d = all_pairs_distances(g)
        proved.append((solve_bdim(g, d), enumerate_min_broadcasts(g, d)))
    # 320 root proofs over the 150 solves ruled out 170 levels.
    assert (len(ruled_out), sum(ruled_out)) == (320, 170)
    monkeypatch.setattr(solvers, "_proof_first", lambda n, slack, cost, broadcast: False)
    oracle = [False] * len(twin_trees) + [True] * len(graphs)
    for g, (new, listed), by_oracle in zip(twin_trees + graphs, proved, oracle):
        d = all_pairs_distances(g)
        label = f"n={g.n} edges={g.edges()}"
        assert _fields(new) == _fields(solve_bdim(g, d)), label
        assert listed == enumerate_min_broadcasts(g, d), label
        if by_oracle:
            assert _fields(new) == _fields(seed_oracle.solve_bdim(g, d)), label


def _walk_solves(g, d):
    """dim, adim, dim_2 and bdim of g, with their checked and built counts
    left out, and the enumerator's list."""
    solved = (solve_dim(g, d), solve_adim(g, d), solve_dim_k(g, 2, d), solve_bdim(g, d))
    return [replace(res, candidates_checked=0, nodes_built=0) for res in solved], enumerate_min_broadcasts(g, d), solved


def test_forced_walk_keeps_every_field(monkeypatch):
    # With the proof and the walk forced on every level of every solve,
    # and forced off (the pure code scan), every field but the checked and
    # built counts is equal, and so is the enumerator's list. Forced on,
    # each level goes to the pair-cover proof, which counts it whole or
    # walks it over the covers: no node's codes are built, except where a
    # set starts at level n - 1, which always resolves and is scanned. The
    # graphs are every labelled graph of order 5 or less and the seeded
    # random graphs and trees of orders 6 to 9.
    graphs = list(labelled_graphs(5)) + _seeded_graphs()
    walked = []
    # Order 1 has no pair to separate.
    monkeypatch.setattr(solvers, "_proving", lambda n, broadcast: n > 1)
    monkeypatch.setattr(solvers, "_proof_first", lambda n, slack, cost, broadcast: True)
    for g in graphs:
        d = all_pairs_distances(g)
        fields, listed, solved = _walk_solves(g, d)
        walked.append((fields, listed))
        for res in solved:
            if g.n > 1 and (res.kind == "bdim" or res.lower_bound_used < g.n - 1):
                assert res.nodes_built == 0, (res.kind, g.n, g.edges())
    monkeypatch.setattr(solvers, "_proving", lambda n, broadcast: False)
    for g, (fields, listed) in zip(graphs, walked):
        d = all_pairs_distances(g)
        scanned, scanned_list, _ = _walk_solves(g, d)
        assert fields == scanned, f"n={g.n} edges={g.edges()}"
        assert listed == scanned_list, f"n={g.n} edges={g.edges()}"


def test_walked_bdim_pays_its_twin_groups():
    # bdim solves whose value level is walked over the pair covers, each
    # field pinned, the checked and built counts too: (value, examined,
    # checked, built) and the twin groups the walk's children must pay.
    # The grid has no twins; both trees have a twin pair, so the walk
    # meets the twin debt and counts some cut children by the counting
    # walk instead of the cost table. The enumerator collects the 6
    # minimum broadcasts of the first tree through the same walk.
    for g, pins, twins in (
        (families.random_tree(20, 1), (8, 896034, 52, 172), [(11, 17)]),
        (families.random_tree(20, 3), (8, 1368280, 62, 274), [(3, 12)]),
        (families.grid((3, 7)), (8, 1301079, 62, 571), []),
    ):
        d = all_pairs_distances(g)
        assert [grp for grp in d.twins.groups if len(grp) > 1] == twins
        res = solve_bdim(g, d)
        assert (res.value, res.candidates_examined, res.candidates_checked, res.nodes_built) == pins, twins
    listed = enumerate_min_broadcasts(families.random_tree(20, 1))
    assert (listed.optimal_cost, len(listed.broadcasts)) == (8, 6)
    assert listed.broadcasts[0] == (0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1, 0, 2)


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
            seps, *covers = _pair_tables(rows)
            for budget in range(1, n):
                assert _separable(seps, covers, (1,) * n, budget, (1 << len(seps)) - 1, (1 << n) - 1) == (budget >= value), (
                    f"k={k} budget={budget} n={n} edges={g.edges()}"
                )


def _capped_vectors(caps, budget):
    """Every strength vector f <= caps of total cost at most `budget`."""
    if not caps:
        yield ()
        return
    for v in range(min(caps[0], budget) + 1):
        for rest in _capped_vectors(caps[1:], budget - v):
            yield (v, *rest)


def _resolves(d, f):
    """Whether the strength vector f resolves the graph of d, by the
    definition: every vertex's code of distances truncated at f(z) + 1."""
    n = len(f)
    codes = {tuple(min(d.dist[z][x], f[z] + 1) for z in range(n) if f[z]) for x in range(n)}
    return len(codes) == n


def _assert_per_strength_tables(g, sample=None):
    """Assert that the per-strength tables of g, from its distances and
    largest cap, match their definition: covers_i[z] holds the pairs that
    row z of `truncated(i)` splits, all under the numbering of the last
    strength's separators, and seps the last strength's separators. With
    `sample`, a count of pairs, only that many seeded pairs and every pair
    that holds vertex 0 or n - 1 are checked, at every landmark and
    strength."""
    n = g.n
    d = all_pairs_distances(g)
    tables = [d.truncated(i) for i in range(1, max(broadcast_value_caps(g, d)) + 1)]
    # Row z of a table is its column z, so the separators of pair (x, y)
    # are the entries where rows x and y differ.
    last = tables[-1]
    pairs = sorted(combinations(range(n), 2), key=lambda pair: sum(map(ne, last[pair[0]], last[pair[1]])))
    seps, *covers = _pair_tables(d.dist, len(tables))
    assert len(covers) == len(tables)
    if sample is None:
        assert seps == [sum(1 << z for z in range(n) if last[z][x] != last[z][y]) for x, y in pairs]
        for table, cover in zip(tables, covers):
            assert cover == [sum(1 << p for p, (x, y) in enumerate(pairs) if table[z][x] != table[z][y]) for z in range(n)]
        return
    assert len(seps) == len(pairs) and all(cover[z] >> len(pairs) == 0 for cover in covers for z in range(n))
    ends = [p for p, (x, y) in enumerate(pairs) if x == 0 or y == n - 1]
    for p in random.Random(n).sample(range(len(pairs)), sample) + ends:
        x, y = pairs[p]
        assert seps[p] == sum(1 << z for z in range(n) if last[z][x] != last[z][y]), (x, y)
        for table, cover in zip(tables, covers):
            assert [cover[z] >> p & 1 for z in range(n)] == [table[z][x] != table[z][y] for z in range(n)], (x, y)


def test_pair_tables_per_strength_match_their_definition():
    # One packed distance table and the balls around each landmark give
    # the tables of every strength from 1 to the largest cap: on every
    # labelled graph of order 2 to 5, on seeded G(n, p) and random trees of
    # orders 6 to 14, and on the disconnected graphs among G(14, 0.12),
    # seeds 0 to 39, whose sentinel must stay out of every ball.
    rng = random.Random(20261022)
    graphs = [g for g in labelled_graphs(5) if g.n > 1]
    for n in range(6, 15):
        graphs += [families.random_graph(n, rng.uniform(0.15, 0.6), rng.randrange(2**31)) for _ in range(3)]
        graphs += [families.random_tree(n, rng.randrange(2**31)) for _ in range(2)]
    sparse = [families.random_graph(14, 0.12, seed) for seed in range(40)]
    disconnected = [g for g in sparse if not metric_profile(g).connected]
    assert len(disconnected) == 37
    for g in graphs + disconnected:
        _assert_per_strength_tables(g)
    # K(1, 254) plus an isolated vertex: n = 256, so the sentinel takes two
    # bytes, and the largest cap is 2. At strength 1 a leaf splits no pair
    # of another leaf and the isolated vertex, which lie at distance 2 and
    # the sentinel from it; at strength 2 it splits them all. The pairs
    # checked include every pair that holds the center or the isolated
    # vertex.
    star = disjoint_union(families.star(254), build_graph(1, []))
    assert max(broadcast_value_caps(star)) == 2
    _assert_per_strength_tables(star, sample=300)


def test_weighted_separation_matches_brute_force():
    # Called without bdim's gate, which keeps it for orders of 11 and
    # more: for every cost c from 1 to bdim, some strengths within the caps
    # of total cost at most c separate every pair exactly when some capped
    # vector of cost at most c resolves, found by brute force over the
    # vectors. On random sub-states (open pairs, available landmarks, and
    # caps lowered below the caps, a landmark lowered to 0 left out of the
    # available ones) it must agree with brute force over the covers.
    rng = random.Random(20240612)
    graphs = [g for g in labelled_graphs(5) if g.n > 1]
    graphs += [families.random_graph(n, rng.uniform(0.15, 0.6), rng.randrange(2**31)) for n in (6, 7) for _ in range(6)]
    graphs += [families.random_tree(n, rng.randrange(2**31)) for n in (6, 7) for _ in range(3)]
    levels = sub_states = 0
    for g in graphs:
        n = g.n
        d = all_pairs_distances(g)
        caps = broadcast_value_caps(g, d)
        seps, *covers = _pair_tables(d.dist, max(caps))
        everything = (1 << len(seps)) - 1
        for cost in count(1):
            brute = any(_resolves(d, f) for f in _capped_vectors(caps, cost))
            assert _separable(seps, covers, caps, cost, everything, (1 << n) - 1) == brute, f"cost={cost} n={n} edges={g.edges()}"
            levels += 1
            if brute:
                break
        for _ in range(3):
            lowered = [rng.randint(0, cap) for cap in caps]
            open_ = rng.getrandbits(len(seps))
            avail = rng.getrandbits(n) & sum(1 << z for z, cap in enumerate(lowered) if cap)
            usable = [cap if avail >> z & 1 else 0 for z, cap in enumerate(lowered)]
            for budget in (1, 2, 3, 4):
                brute = any(
                    not open_ & ~reduce(or_, (covers[v - 1][z] for z, v in enumerate(f) if v), 0)
                    for f in _capped_vectors(usable, budget)
                )
                assert _separable(seps, covers, lowered, budget, open_, avail) == brute, (
                    f"budget={budget} open={open_:b} avail={avail:b} caps={lowered} n={n} edges={g.edges()}"
                )
                sub_states += 1
    assert (levels, sub_states) == (2413, 4 * 3 * len(graphs))


def test_pair_separation_test_on_sub_states():
    # The branch and bound is asked about sub-states too: the pairs a
    # prefix leaves open and the landmarks above its last. On random
    # (open, avail) masks at budgets 1 to 3 it must say whether some
    # `budget` landmarks of avail separate every open pair, by brute force.
    rng = random.Random(19960924)
    graphs = [g for g in labelled_graphs(5) if g.n > 1]
    graphs += [families.random_graph(n, rng.uniform(0.1, 0.7), rng.randrange(2**31)) for n in (6, 7, 8) for _ in range(4)]
    checks = 0
    for g in graphs:
        n = g.n
        d = all_pairs_distances(g)
        for k in sorted({1, n - 1}):
            seps, *covers = _pair_tables([truncated_row(row, k, n) for row in d.dist])
            for _ in range(2):
                open_, avail = rng.getrandbits(len(seps)), rng.getrandbits(n)
                landmarks = [z for z in range(n) if avail >> z & 1]
                for budget in (1, 2, 3):
                    sets = combinations(landmarks, min(budget, len(landmarks)))
                    brute = any(not open_ & ~reduce(or_, (covers[0][z] for z in s), 0) for s in sets)
                    assert _separable(seps, covers, (1,) * n, budget, open_, avail) == brute, (
                        f"k={k} budget={budget} open={open_:b} avail={avail:b} n={n} edges={g.edges()}"
                    )
                    checks += 1
    # Order 2 has one truncation, k = 1 = n - 1.
    assert checks == 3 * 2 * (2 + 2 * (8 + 64 + 1024 + 12))


def test_pair_separation_reads_few_table_entries():
    # Each node of the branch and bound reads the table entry of its
    # lowest open pair and one per branch, not one per open pair: the
    # proofs that no 3 or 4 landmarks of G(26, 0.3), seed 0, resolve it
    # read under 1,000 and 5,000 entries. Every entry read counts, by index,
    # slice, copy or iteration, and a copy counts its own reads as well, so
    # an entry copied to a working list counts when copied and when read.
    # The branch and bound reads 412 and 2,436 entries of its working list
    # and 92 and 439 elsewhere, so a count under 300 or 1,800 says the
    # working list's reads escaped the count.
    class Counting(list):
        reads = 0

        def __getitem__(self, i):
            got = super().__getitem__(i)
            if isinstance(i, slice):
                Counting.reads += len(got)
                return Counting(got)
            Counting.reads += 1
            return got

        def __iter__(self):
            Counting.reads += len(self)
            return super().__iter__()

        def copy(self):
            return self[:]

    n = 26
    seps, *covers = _pair_tables(all_pairs_distances(families.random_graph(n, 0.3, 0)).dist)
    for budget, least, most in ((3, 300, 1000), (4, 1800, 5000)):
        Counting.reads = 0
        assert not _separable(Counting(seps), [Counting(covers[0])], (1,) * n, budget, (1 << len(seps)) - 1, (1 << n) - 1)
        assert least < Counting.reads < most, (budget, Counting.reads)


def test_pair_tables_match_their_definition():
    # seps[p] holds the landmarks whose rows differ on the p-th pair, and
    # covers[z] the pairs that landmark z's row splits, on every labelled
    # graph of order 2 to 5 at four truncations; the pairs are numbered by
    # ascending count of separators, ties in `combinations` order.
    for g in labelled_graphs(5):
        n = g.n
        if n < 2:
            continue
        d = all_pairs_distances(g)
        pairs = list(combinations(range(n), 2))
        for k in sorted({1, 2, 3, n - 1}):
            rows = [truncated_row(row, k, n) for row in d.dist]
            splits = [[rows[z][x] != rows[z][y] for z in range(n)] for x, y in pairs]
            splits.sort(key=sum)
            seps = [sum(1 << z for z in range(n) if split[z]) for split in splits]
            covers = [sum(1 << p for p, split in enumerate(splits) if split[z]) for z in range(n)]
            assert _pair_tables(rows) == (seps, covers), f"k={k} n={n} edges={g.edges()}"


def _reference_pair_tables(rows):
    """The pair tables as they were built before rows were packed: each
    pair's comparison spelled out entry by entry, sorted on a key per pair
    and transposed with zip."""
    bits_of = bytes.maketrans(b"\x00\x01", b"01")
    back = [row[::-1] for row in rows]
    bits = sorted(
        (bytes(map(ne, back[x], back[y])).translate(bits_of) for x, y in combinations(range(len(rows)), 2)),
        key=lambda sep: sep.count(b"1"),
    )
    covers = [int(bytes(col), 2) for col in zip(*reversed(bits))]
    return [int(sep, 2) for sep in bits], covers[::-1]


def test_pair_tables_match_the_reference_where_solves_build_them():
    # Set solves build tables from order 11 on: G(n, p) and random trees
    # of orders 12 to 30, each at k = 1, 2 and n - 1, give the reference's
    # tables, pair order and all.
    rng = random.Random(19960912)
    for n in range(12, 31):
        gnp = families.random_graph(n, rng.uniform(0.1, 0.6), rng.randrange(2**31))
        for g in (gnp, families.random_tree(n, rng.randrange(2**31))):
            d = all_pairs_distances(g)
            for k in (1, 2, n - 1):
                rows = [truncated_row(row, k, n) for row in d.dist]
                assert _pair_tables(rows) == _reference_pair_tables(rows), f"k={k} n={n} edges={g.edges()}"


def test_pair_tables_with_two_byte_entries():
    # From order 256 on the sentinel n needs two bytes. P255 plus an
    # isolated vertex has entries 0 to 254 and 256: its tables match the
    # reference's, and on a seeded sample of pairs they match the
    # definition at every landmark.
    n = 256
    rows = all_pairs_distances(build_graph(n, [(v, v + 1) for v in range(254)])).dist
    assert max(map(max, rows)) == n
    seps, covers = _pair_tables(rows)
    assert (seps, covers) == _reference_pair_tables(rows)
    cols = list(zip(*rows))
    pairs = list(combinations(range(n), 2))
    pairs.sort(key=lambda pair: sum(map(ne, cols[pair[0]], cols[pair[1]])))
    # Every landmark separates the isolated vertex from any other, so its
    # n - 1 pairs come last; they compare entry 256 with 0 at one landmark,
    # where only the high bytes differ, and the sample takes 50 of them.
    assert all(y == n - 1 for _, y in pairs[1 - n:])
    rng = random.Random(256)
    for p in rng.sample(range(len(pairs) + 1 - n), 150) + rng.sample(range(len(pairs) + 1 - n, len(pairs)), 50):
        x, y = pairs[p]
        split = [rows[z][x] != rows[z][y] for z in range(n)]
        assert seps[p] == sum(1 << z for z in range(n) if split[z]), (x, y)
        assert [covers[z] >> p & 1 for z in range(n)] == split, (x, y)


def test_plain_set_solves_build_no_pair_table(monkeypatch):
    # A set solve's tables wait for order 11 (`_proving`), whether its
    # class-count bound works or is idle: no plain set solve of the graphs
    # the steered walk is compared on above, or of G(10, p), builds one.
    def refuse(rows):
        raise AssertionError("pair table built")

    rng = random.Random(20111)
    graphs = list(labelled_graphs(5)) + _seeded_graphs()
    graphs += [families.random_graph(10, p, rng.randrange(2**31)) for p in (0.2, 0.3, 0.5, 0.7) for _ in range(2)]
    pair_tables = solvers._pair_tables
    monkeypatch.setattr(solvers, "_pair_tables", refuse)
    for g in graphs:
        d = all_pairs_distances(g)
        _solve_sets(g, d)
    # From order 11 on an idle bound counts as slack n, so an idle solve
    # takes the same rule: dim of this G(11, 0.2) scans levels 1 to 3, of
    # at most 4 * C(11, 2) subsets each, and proves, then walks, its value
    # level 4 over the tables.
    g = families.random_graph(11, 0.2, 157438844)
    d = all_pairs_distances(g)
    assert _counting_idle(d.dist, 11)
    with pytest.raises(AssertionError, match="pair table built"):
        solve_dim(g, d)
    monkeypatch.setattr(solvers, "_pair_tables", pair_tables)
    res = solve_dim(g, d)
    assert _fields(res) == _fields(seed_oracle.solve_dim(g, d))
    assert (res.value, res.candidates_checked, res.nodes_built) == (4, 103, 64)


def test_sets_prove_and_walk_the_levels_of_many_subsets(monkeypatch):
    # One rule picks the levels a set solve proves, then walks, over the
    # pair tables: from order 11 on, a level whose class-count slack is at
    # least n/2, n for an idle bound, and that has more than 4 * C(n, 2)
    # subsets. Every other level is scanned by codes or counted below the
    # counting floor.
    roots = []
    separable = solvers._separable

    def spy(seps, covers, caps, budget, open_, avail):
        if avail == (1 << len(caps)) - 1:
            roots.append(budget)
        return separable(seps, covers, caps, budget, open_, avail)

    monkeypatch.setattr(solvers, "_separable", spy)
    # dim of G(26, 0.3), seed 0, is 5. Level 3 is the first with more
    # subsets than 4 * C(26, 2): the tables prove levels 3 and 4 empty and
    # steer the walk of level 5 to its witness, which builds no node.
    g26 = families.random_graph(26, 0.3, 0)
    assert [solvers._proof_first(26, 26, cost, False) for cost in (2, 3)] == [False, True]
    res = solve_dim(g26)
    assert res.value == 5
    assert roots == [3, 4, 5]
    assert (res.candidates_checked, res.nodes_built) == (96, 0)

    # dim of this G(12, 0.5) is 4. Its diameter is 3, so its counting
    # floor is 3: levels 1 and 2 are counted. Level 3 has 220 <= 264
    # subsets and is scanned; level 4 is proved, then walked.
    g12 = families.random_graph(12, 0.5, 12013)
    d12 = all_pairs_distances(g12)
    assert comb(12, 3) <= 4 * comb(12, 2) < comb(12, 4)
    del roots[:]
    res = solve_dim(g12, d12)
    assert _fields(res) == _fields(seed_oracle.solve_dim(g12, d12))
    assert roots == [4]
    assert (res.value, res.candidates_checked, res.nodes_built) == (4, 249, 65)
    assert _below_floor(g12, d12, 11) == 12 + comb(12, 2)

    # dim of this G(12, 0.6) is 5. Its diameter is 2, so its counting
    # floor is 4 (3 + 2**3 < 12): levels 1 to 3 are counted, the tables
    # prove level 4 empty and the walk of level 5 resolves at its first
    # leaf. With the floor off, levels 1 to 3 are scanned instead and the
    # same two levels are proved, then walked: what the scan of a level
    # sees does not move the rule.
    g12 = families.random_graph(12, 0.6, 120142)
    d12 = all_pairs_distances(g12)
    del roots[:]
    floored = solve_dim(g12, d12)
    assert floored.value == 5
    assert roots == [4, 5]
    assert (floored.candidates_checked, floored.nodes_built) == (1, 0)
    assert _below_floor(g12, d12, 11) == 12 + comb(12, 2) + comb(12, 3)
    monkeypatch.setattr(solvers, "_floored", lambda n: False)
    del roots[:]
    res = solve_dim(g12, d12)
    assert _fields(res) == _fields(floored)
    assert roots == [4, 5]
    assert (res.candidates_checked, res.nodes_built) == (1 + 12 + comb(12, 2) + comb(12, 3), 76)


def test_twin_forced_trees_prove_their_levels_early():
    # Twin leaves force lb = 2 on these trees, whose class-count bound is
    # idle, and level 3 has more than 4 * C(n, 2) subsets: the tables
    # prove the levels below the value empty and steer the walk to the
    # witness, so each solve checks under 100 of its thousands of
    # candidates.
    for n in (26, 28, 30):
        g = families.random_tree(n, 1)
        d = all_pairs_distances(g)
        new = solve_dim(g, d)
        assert _counting_idle(d.dist, n)
        assert new.lower_bound_used == 2
        assert [solvers._proof_first(n, n, cost, False) for cost in (2, 3)] == [False, True]
        assert _fields(new) == _fields(seed_oracle.solve_dim(g, d)), f"tree n={n}"
        assert new.candidates_checked < 100, (n, new.candidates_checked)


def test_solves_that_prove_levels_empty():
    # With the class-count bound idle, these solves prove the levels of
    # more than 4 * C(n, 2) subsets below the value empty, and count their
    # candidates instead of checking them: every field still matches the
    # oracle.
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
        # The idle rule keeps the class-count bound off, so the proof made
        # the gap.
        assert _counting_idle([truncated_row(row, k, g.n) for row in d.dist], g.n)
    # The class-count bound works on adim of C17 and P17, so, from order
    # 11 on, the bound is made before the first level to price each
    # level's slack. The slack stays below n/2 on every level, so no level
    # goes to the proof: the bound, made from the first node on, and the
    # split cut leave these candidates checked.
    assert solve_adim(families.cycle(17)).candidates_checked == 19
    assert solve_adim(families.path(17)).candidates_checked == 23


def test_no_pair_table_when_the_scan_ends_first(monkeypatch):
    # Below the first proved level the scan runs as before, and a witness
    # there ends the solve: a path of order 300 passes the gate (the walk
    # over a table of 13 million entries would start at level 3 or 4) but
    # resolves at level 1.
    def refuse(rows):
        raise AssertionError("pair table built")

    monkeypatch.setattr(solvers, "_pair_tables", refuse)
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


def test_cycles_and_paths_build_no_cover_table(monkeypatch):
    # The class-count slack of bdim on C16, P14 and C20 is 5 or less on
    # every level, below the n/2 that sends a level to the pair-cover
    # proof first: they build no cover table and solve as before, as does
    # the enumerator on C12.
    def refuse(*args):
        raise AssertionError("built")

    graphs = [families.cycle(16), families.path(14), families.cycle(20)]
    c12 = families.cycle(12)
    before = [solve_bdim(g) for g in graphs], enumerate_min_broadcasts(c12)
    monkeypatch.setattr(solvers, "_pair_tables", refuse)
    assert ([solve_bdim(g) for g in graphs], enumerate_min_broadcasts(c12)) == before
    # The split cut's gate: no solve of a graph of order 5 or less checks
    # as many candidates as the class lists it would build have entries.
    monkeypatch.setattr(solvers, "_split_classes", refuse)
    for g in labelled_graphs(5):
        d = all_pairs_distances(g)
        for solve in (solve_dim, solve_adim, solve_bdim, enumerate_min_broadcasts):
            solve(g, d)
        for k in (2, 3):
            solve_dim_k(g, k, d)
