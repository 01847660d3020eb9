"""Exact solvers for the four dimension parameters, exhaustive
enumeration of minimum broadcasts, and the path/cycle flattening rewrite.

All four parameters ask for the cheapest strength vector f whose codes
are all distinct, where a vertex z with f(z) = i > 0 contributes the row
of its distances truncated at i + 1 (`truncated_row`). dim, dim_k and
adim are the subset case: a landmark's row holds its distances truncated
at k + 1 for dim_k, at 2 for adim (k = 1), and dim is the k = n - 1 case,
whose truncation at n leaves every row as it is. bdim lets strengths
range up to `broadcast_value_caps`. `revalidate` checks every witness the
same way, as a strength vector: n - 1, 1 or k on each landmark of a set,
or the broadcast itself. Every solve and check reads its rows from the
distance bundle's table for the strength (`DistanceMatrix.truncated`),
so the solves and checks that share a bundle truncate each row once.

One search kernel, `_search`, serves them all. It walks the vectors of
one cost at a time, depth first, in lexicographic order: sorted-subset
order for sets and value-vector order for broadcasts. Each step fixes
the next support vertex and its strength and refines every vertex's code
by that one landmark; codes are ints, `code * base + entry`, built with
one C-level `map(add, ...)` per step, and a vector resolves when
`len(set(map(add, prefix, row))) == n`. The first resolving vector is
therefore the lexicographically least witness. `enumerate_min_broadcasts`
is bdim's search with collect (`_broadcast_search`): the same caps, rows
and starting lower bound, but it keeps every resolving vector of the
first cost that has one. No minimum broadcast exceeds the caps and every
resolving broadcast meets the bound, so that cost is bdim and those
vectors are all of its minimum broadcasts.

A vector is a candidate unless it leaves two members of one twin group
at strength 0 or, for bdim and the enumerator, fails the counting
condition |supp| + prod(f + 1) >= n. Neither kind of vector can resolve;
the kernel cuts a subtree only when every vector in it is of one of
those kinds, and never examines them. `candidates_examined` counts the
candidates in lexicographic order, level after level, up to and
including the first resolving one, so it does not depend on how the
search is implemented.

The kernel also skips a subtree whose codes have too few classes for
the cost left below it to make them all distinct: the counting argument
of the broadcast lower bound, applied at each node to the rows still
above it. A row adds at most n - m classes to any codes, m the number of
its entries equal to its largest (`_row_gain`). So cost r spent on the
vertices above z adds at most best[r][z], a knapsack over strengths that
prices each strength at its best row above z (`_class_gains`,
`_grow_class_bound`). Each node passes down how many classes its codes
miss, and the kernel skips a child (z, v) when the gain of row (z, v)
plus best[left][z] falls short of that; skips it, once its codes are
built, when they miss more than best[left][z]; and counts a leaf
without checking it when its row's gain falls short. The candidates
below a cut cannot resolve, but they are candidates: the kernel counts
them instead of checking them. Below a cut child at z with cost r left
and no twin-group member above z, every completion passes the twin rule,
and the cheapest one for the counting condition puts all of r on one
vertex; when it passes, so do all, and the count is ways[z + 1][r], the
number of vectors of cost r on the vertices above z within the caps
(`_cost_ways`). The table is made on the solve's first count and remade
at each later level, one running sum per vertex above the highest twin
member. Every other count comes from the same walk run in its counting
mode, which builds no code, checks no leaf and memoises each count.
`candidates_examined` is therefore unchanged, and `candidates_checked`
says how many had their codes compared.

The bound's tables are made once per solve, when the scan has built as
many nodes as there are strength rows (`_bound_gate`), and never when
some strength-1 row adds at least (n - 2)/2 classes (`_counting_idle`):
there a count prices out almost nothing, and dim on random graphs would
pay for tables it does not use.

For sets, the exponential part of a solve is mostly the proof that no
smaller set resolves, not the search for the witness. A set resolves
exactly when it holds, for every pair of vertices, a landmark whose row
separates them: a hitting set over pairs (Khuller, Raghavachari and
Rosenfeld, 1996). From some level on (`_level_proof`), dim, dim_k and
adim walk each level over the pair tables (`_pair_tables`) instead of
codes: each node carries the bitmask of the pairs still open, a leaf
resolves when its landmark separates all of them, and the candidates
below a node with cost r >= 2 left are counted, as below a cut, when a
branch and bound over those tables (`_separable`) shows that no r
landmarks above it separate them. The tables number the pairs by
ascending count of separators, so the branch and bound branches on the
lowest open pair, the rarest, with one big-int step per branch and none
per open pair. At the root that is the proof that the level is empty;
below it, it steers the walk to the lex-least witness. These levels run
neither the class-count bound, which is idle on them, nor the split
cut: the branch and bound fails wherever an open pair has no separator
above the node. At n >= 12, while the class-count bound is idle, the
walk starts at the first level above the first one scanned that has
more than 4 * C(n, 2) subsets. A level whose predecessor's scan checked
a leaf within 2 classes of resolving is scanned instead, so each near
miss defers the walk by one level. The walk examines the same candidates
as the scan, so the counts stay the same; `candidates_checked` leaves out
the proved subtrees and levels too.

The split cut also works by pairs, inside the code scan, for all four
parameters. Below a node whose last support vertex is z, with cost
r >= 2 left, every pair of vertices whose codes are still equal must be
split by a landmark above z. A landmark that splits a pair at some
strength splits it at every higher one, so none can do more than at
strength min(r, its cap). The subtree is skipped when some pair has no
such landmark, which one class list per strength decides for every pair
at once (`_split_classes`); its candidates are counted, as below a class
count cut. The test starts once the scan has built the codes of n**2
nodes per strength the level reads, n times as many codes as those class
lists have entries, so a tiny solve builds none. It counts nodes built,
not candidates checked, because the class-count bound leaves few leaves
to check. Only the set walk over the pair tables reads pair tables.

Order-1 graphs take value 1 by convention for all parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, count, repeat
from math import comb, inf
from operator import add, mul, ne, sub
from typing import Optional, Sequence, Union

from .graphs import DistanceMatrix, Graph, all_pairs_distances, build_graph
from .resolution import Broadcast, counting_floor, is_resolving_broadcast


@dataclass(frozen=True)
class SolverResult:
    """Optimal value with its witness and basic search statistics."""

    kind: str
    value: int
    witness: Union[tuple[int, ...], Broadcast]
    candidates_examined: int
    lower_bound_used: int
    # The candidates tested for resolution: by their codes, or in a set
    # level walked over the pair tables by the pairs their last landmark
    # separates. The rest of those examined were counted at leaves or in
    # subtrees that the class-count bound, the split cut or the
    # pair-separation branch and bound skipped, or in levels it showed
    # empty.
    candidates_checked: int
    # The nodes of the code scan whose codes were built; the pair-table
    # walk builds none.
    nodes_built: int = 0


@dataclass(frozen=True)
class EnumerationResult:
    """Every minimum-cost resolving broadcast, in lexicographic order."""

    optimal_cost: int
    broadcasts: tuple[tuple[int, ...], ...]


def _row_gain(row, n: int) -> int:
    """The most classes that refining any codes by `row` can add: each class
    gains at most one class per member whose entry is not max(row), so
    n - m for the m entries equal to max(row)."""
    return n - row.count(max(row))


def _counting_idle(ones, n: int) -> bool:
    """Whether some strength-1 row of `ones` adds at least (n - 2)/2
    classes. Cost r >= 2 may then add n - 2 classes by that row's gain
    alone, and every node below the root has 2 classes already, so the
    class-count bound can price a node out only where few rows are left
    above it: the scan leaves it off, and for sets `_level_proof` may run
    in its place."""
    return any(2 * _row_gain(row, n) >= n - 2 for row in ones)


def _bound_gate(caps: Sequence[int]) -> int:
    """The number of nodes a scan builds before it makes the class-count
    bound: one per strength row, sum(caps). The bound reads the n entries
    of each row, and a node builds n codes, so the scan has spent as much
    on codes as the bound costs, and a tiny solve makes none."""
    return sum(caps)


def _class_gains(rows, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Return (gain, above) for the strength rows `rows`: gain[v][z] is the
    `_row_gain` of rows[v][z], or 0 where z cannot take strength v, and
    above[v][z] = max(gain[v][w] for w > z), 0 for z = n - 1. Both are
    empty at v = 0."""
    gain = [[]] + [[0 if row is None else _row_gain(row, n) for row in level] for level in rows[1:]]
    return gain, [[]] + [list(accumulate(g[:0:-1], max, initial=0))[::-1] for g in gain[1:]]


def _cost_ways(caps: Sequence[int], level: int, low: int = 0) -> list[Optional[list[int]]]:
    """Return ways[i][r] for low <= i <= len(caps) and 0 <= r <= level: the
    number of strength vectors of total cost r on vertices i, ...,
    len(caps) - 1, each f(z) in 0..caps[z]; ways[i] is None for i < low.
    ways[len(caps)] is [1, 0, ...], and each row above it is one running
    sum of the row after it, ways[i][r] = sum(ways[i + 1][r - v] for v in
    0..caps[i]); all-1 caps give C(len(caps) - i, r)."""
    ways = [[1] + [0] * level]
    for cap in reversed(caps[low:]):
        run = list(accumulate(ways[-1]))
        ways.append(list(map(sub, run, [0] * (cap + 1) + run)))
    return [None] * low + ways[::-1]


def _grow_class_bound(best: list[list[int]], above: list[list[int]], size: int) -> None:
    """Append best[r][z] for each r from len(best) up to size - 1: the most
    classes that cost r, spent on the vertices above z, can add to any
    codes.

    A vertex w > z at strength v adds at most gain[v][w] <= above[v][z]
    classes, so cost r adds at most the best split of r over strengths,
    each strength priced at `above`. best[0] is all 0.
    """
    for r in range(len(best), size):
        row = [0] * len(best[0])
        for v in range(1, min(r, len(above) - 1) + 1):
            row = list(map(max, row, map(add, above[v], best[r - v])))
        best.append(row)


def _twin_debt(masks: Sequence[int], free: int, n: int) -> tuple[int, int, int]:
    """Return (hi, owed, owing) for the twin groups `masks`, bitmasks of two
    or more vertices, at a node whose unchosen group members are the
    bitmask `free`. A vector leaves at most one member of each group at
    strength 0, so every group must still take all but one of its free
    members: `owed` such support vertices in all, paid by the members in
    `owing`. The next support vertex lies below `hi`, one past the second
    lowest free member of any group that owes one, or n: a vertex at or
    above it would pass over two free members of that group for good."""
    hi = n
    owed = owing = 0
    for m in masks:
        t = free & m
        u = t & (t - 1)
        if u:
            p = (u & -u).bit_length()
            if p < hi:
                hi = p
            owed += t.bit_count() - 1
            owing |= t
    return hi, owed, owing


def _split_classes(rows, caps: Sequence[int], base: int, r: int) -> list[list[int]]:
    """Return classes[z][x]: the lowest vertex that no landmark w > z, at
    strength min(r, caps[w]), splits from x, for r < len(rows). Codes that
    are multiples of `base` repeat when offset by classes[z] exactly when
    some pair with equal codes has no landmark above z that splits it."""
    n = len(caps)
    down = range(n - 1, -1, -1)
    classes = [[0] * n]
    for z in down[:-1]:
        keys = list(map(add, map(mul, classes[-1], repeat(base)), rows[min(r, caps[z])][z]))
        first = dict(zip(reversed(keys), down))
        classes.append(list(map(first.__getitem__, keys)))
    return classes[::-1]


def _search(
    rows, caps: Sequence[int], lb: int, groups, broadcast: bool, collect: bool = False
) -> tuple[Optional[int], int, int, int, list[tuple[tuple[int, int], ...]]]:
    """Scan strength vectors level by level, each cost from lb up (below n
    for a set) and lexicographic order within a cost, for ones whose codes
    are all distinct; stop after the first level that has one. For a set,
    each level from the start of `_level_proof` on is walked over the pair
    tables (`descend`) instead of by codes, unless the scan of the level
    before it checked a leaf within 2 classes of n: a near miss says the
    value is likely this level, where the tables would be waste, so it is
    scanned too.

    A vector is built one support vertex at a time: each step picks the
    next vertex z above the previous one and a strength 1 <= v <= caps[z],
    and refines every vertex's code with the row `rows[v][z]`. Codes are
    ints, `code * base + entry` with base = n + 1: no row entry exceeds the
    sentinel n. For a `broadcast` the next vertex is tried from the top down
    and strengths from the bottom up, which is ascending value-vector order;
    for a set (all caps 1) vertices go up, which is ascending sorted-subset
    order.

    A vector is a candidate unless it leaves two members of one group of
    `groups` at strength 0 or, for a broadcast, fails the counting
    condition `|supp| + prod(f + 1) >= n`; groups of one vertex constrain
    nothing. A subtree is cut only when none of its vectors can be a
    candidate. Each node knows how many classes its codes miss, and no
    vector resolves below a child (z, v) when gain[v][z] + best[left][z]
    falls short of that, or when the child's own codes miss more than
    best[left][z] (the class-count bound of the module docstring, with
    `left` the cost left below the child); nor at a leaf whose row's gain
    falls short. The candidates below such a child are counted without
    building or checking codes: from the cost table `ways` when no
    twin-group member lies above it and, for a broadcast, its cheapest
    completion, one vertex at strength `left`, meets the counting
    condition; otherwise by the walk in counting mode. A leaf is counted without
    being checked. So it goes below a node that the split cut skips, and
    below a node of a pair-table level that the branch and bound rules
    out; at the root, that counts the whole level. Returns the cost
    reached (None if the levels ran out), the number of candidates
    examined, how many of those were checked, how many nodes had their
    codes built, and the resolving vectors at that cost as (vertex,
    strength) pairs: the first one, or with `collect` all of them.
    """
    n = len(caps)
    base = n + 1
    need = n if broadcast else 0  # a set's counting condition always holds
    # after[z] = sum(caps[z + 1:]), the most cost the vertices above z take.
    after = list(accumulate(caps[:0:-1], initial=0))[::-1]
    ones = rows[1]
    masks = [sum(map((1).__lshift__, grp)) for grp in groups if len(grp) > 1]
    members = sum(masks)
    # `_twin_debt` of each `free` mask met, made on first use.
    debt: dict[int, tuple[int, int, int]] = {}
    checked = 0
    built = 0  # the nodes whose codes were built
    memo: dict[tuple[int, int, int, int, int], int] = {}
    path: list[tuple[int, int]] = []
    found: list[tuple[tuple[int, int], ...]] = []
    strongest = len(rows) - 1
    # The class-count bound, `gain` and `best` of `_class_gains` and
    # `_grow_class_bound`, made once `built` reaches `_bound_gate`, unless
    # `_counting_idle`. Until then they are None, and every node misses 0
    # classes as far as the walk knows, so it reads neither.
    gain = above = best = None
    bound_gate = _bound_gate(caps)
    level = 0
    # The cost table: ways[i][r] of `_cost_ways` for r <= level and the
    # vertices i above the highest twin-group member, made on the solve's
    # first entry into the counting walk and remade at each later level.
    # Until then it is None and `clear` is n. A cut child at z >= clear has
    # no twin-group member above it, so every completion passes the twin
    # rule, and the table counts them when the cheapest one, all of `left`
    # on one vertex, meets the counting condition.
    ways = None
    clear = n
    # The split cut tests nodes once `built` reaches `gate`, each with the
    # `_split_classes` of its strength, made on first use.
    split: dict[int, list[list[int]]] = {}
    gate = 0
    # A broadcast's lb is at least counting_floor(n, 2), so each level has
    # vectors that meet the counting condition.
    levels = count(lb) if broadcast else range(lb, n)
    proof = None if broadcast else _level_proof(ones, n, lb)
    # A checked leaf resolves, or on a level scanned from proof - 1 on
    # comes within 2 classes of resolving, when its codes have at least
    # `close` classes. A start at lb has no level before it to come close.
    close = n - 2 if proof == lb else n

    def make_bound() -> None:
        nonlocal gain, above, best, bound_gate
        bound_gate = inf
        if not _counting_idle(ones, n):
            gain, above = _class_gains(rows, n)
            best = [[0] * n]
            _grow_class_bound(best, above, level)

    def extend(codes, last: int, rem: int, supp: int, weight: int, free: int, missing: int) -> int:
        """Try every way to spend `rem` more on vertices above `last`, and
        return the number of candidates examined below this node.

        `codes` holds each vertex's code so far, times `base`, and falls
        `missing` classes short of n (0 when not known); the vector so far
        has `supp` support vertices and prod(f + 1) = `weight`, and `free`
        holds the twin-group members it has not chosen, all that the twin
        rule reads (`_twin_debt`). The walk stops at the first resolving
        vector unless it collects. With `codes` None it counts every
        candidate below instead, builds no code, and memoises the count on
        what the walk reads: |supp| and the product only matter up to
        `need`. Its first such call makes the cost table, and its children,
        like every cut child, take their counts from the table where it
        applies.
        """
        nonlocal checked, built, close, ways, clear
        if codes is None:
            if ways is None:
                clear = members.bit_length() - 1  # the highest twin-group member
                ways = _cost_ways(caps, level, clear + 1)
            key = (last, rem, min(supp, need), min(weight, need), free)
            total = memo.get(key)
            if total is not None:
                return total
        supp += 1  # counting the next support vertex
        hi = n  # the next support vertex is below hi
        owed = owing = still = 0  # the twin groups' debt: see `_twin_debt`
        next_free = free  # the free members below the next child
        if masks:
            hi, owed, owing = debt.get(free) or debt.setdefault(free, _twin_debt(masks, free, n))
        zs = range(hi - 1, last, -1) if broadcast else range(last + 1, hi)
        total = 0
        if rem == 1:
            # Every child is a leaf at strength 1, and meets the counting
            # condition: the strength loop above, or the level's start at
            # lb, saw to it. A leaf whose row adds fewer classes than the
            # codes miss is counted, not checked.
            if codes is None:
                total = sum(owed <= owing >> z & 1 for z in zs)
            else:
                priced = 0  # the leaves counted, not checked
                for z in zs:
                    if owed > owing >> z & 1:
                        continue
                    total += 1
                    if missing and gain[1][z] < missing:
                        priced += 1
                    elif (distinct := len(set(map(add, codes, ones[z])))) >= close:
                        if distinct < n:
                            close = n  # a near miss: the next level is scanned too
                            continue
                        found.append((*path, (z, 1)))
                        if not collect:
                            break
                checked += total - priced
        else:
            # Rows that end a vector here, if any vertex can take all of rem.
            ends = rows[rem] if rem < len(rows) and supp + weight * (rem + 1) >= need else ()
            for z in zs:
                cap = caps[z]
                lo = rem - after[z]
                if lo > cap:
                    continue
                if masks:
                    still = owed - (owing >> z & 1)
                    next_free = free & ~(1 << z)
                for v in range(lo if lo > 1 else 1, cap + 1 if cap < rem else rem):
                    left = rem - v
                    w = weight * (v + 1)
                    # Each unit of cost left adds at most one support vertex
                    # and doubles the product at most, so supp + left +
                    # w * 2**left bounds |supp| + prod(f + 1) below here. It
                    # falls as v grows, and so does `left`.
                    if still > left or supp + left + (w << left) < need:
                        break
                    # The candidates below a cut are counted, not checked:
                    # first when row (z, v) and cost `left` above z cannot
                    # add the classes the codes miss, then when the child's
                    # own codes miss more than `left` can add, or the split
                    # cut rules them out.
                    skip = codes is None or missing and gain[v][z] + best[left][z] < missing
                    if not skip:
                        nxt = [c * base for c in map(add, codes, rows[v][z])]
                        built += 1
                        short = 0
                        if best is not None:
                            short = n - len(set(nxt))
                            skip = best[left][z] < short
                        elif built >= bound_gate:
                            make_bound()
                        if not skip and left > 1 and built >= gate:
                            r = left if left < strongest else strongest
                            classes = split.get(r)
                            if classes is None:
                                classes = split[r] = _split_classes(rows, caps, base, r)
                            skip = len(set(map(add, nxt, classes[z]))) < n
                    if skip:
                        if z >= clear and supp + 1 + w * (left + 1) >= need:
                            total += ways[z + 1][left]
                        else:
                            total += extend(None, z, left, supp, w, next_free, 0)
                        continue
                    path.append((z, v))
                    total += extend(nxt, z, left, supp, w, next_free, short)
                    if found and not collect:
                        return total
                    path.pop()
                if cap < rem or still or not ends:
                    continue
                total += 1
                if codes is None or missing and gain[rem][z] < missing:
                    continue
                checked += 1
                if len(set(map(add, codes, ends[z]))) == n:
                    found.append((*path, (z, rem)))
                    if not collect:
                        return total
        if codes is None:
            memo[key] = total
        return total

    if proof is not None:
        # The pair tables, made on first use.
        seps = covers = None
        top = 1 << n

        def descend(open_: int, last: int, rem: int, free: int) -> int:
            """Walk a set level as `extend` does, carrying the bitmask of
            the pairs no landmark of the set so far separates instead of
            codes, and return the number of candidates examined below this
            node. `free` holds the twin-group members not chosen, and the
            twin rule reads it through `_twin_debt` as in `extend`.

            A node with rem >= 2 whose open pairs no `rem` landmarks above
            `last` can separate (`_separable`) is walked in counting mode,
            and a leaf resolves when its landmark separates every open
            pair.
            """
            nonlocal checked
            if rem > 1 and not _separable(seps, covers, rem, open_, top - (1 << (last + 1))):
                return ways[last + 1][rem] if last >= clear else extend(None, last, rem, 0, 1, free, 0)
            hi = n
            owed = owing = 0
            next_free = free
            if masks:
                hi, owed, owing = debt.get(free) or debt.setdefault(free, _twin_debt(masks, free, n))
            total = 0
            if rem == 1:
                for z in range(last + 1, hi):
                    if owed > owing >> z & 1:
                        continue
                    total += 1
                    if not open_ & ~covers[z]:
                        found.append((*path, (z, 1)))
                        break
                checked += total
                return total
            # z leaves at least the rem - 1 vertices the set still takes above it.
            for z in range(last + 1, min(hi, n + 1 - rem)):
                if masks:
                    if owed - (owing >> z & 1) >= rem:
                        continue
                    next_free = free & ~(1 << z)
                path.append((z, 1))
                total += descend(open_ & ~covers[z], z, rem - 1, next_free)
                if found:
                    return total
                path.pop()
            return total

    start = [0] * n
    examined = 0
    for cost in levels:
        # A node reads best[r] for the cost r left below it, r < cost, and
        # the walk reads ways[i][r] for r <= cost.
        level = cost
        if ways is not None:
            ways = _cost_ways(caps, cost, clear + 1)
        if proof is not None and cost + 1 >= proof:
            if cost >= proof and close < n:  # no near miss on the level before
                if seps is None:
                    seps, covers = _pair_tables(ones)
                examined += descend((1 << len(seps)) - 1, -1, cost, members)
                if found:
                    return cost, examined, checked, built, found
                continue
            close = n - 2
        if built >= bound_gate:
            make_bound()
        elif best is not None:
            _grow_class_bound(best, above, level)
        # The split cut reads strengths 1..cost - 1, which take
        # min(cost - 1, max(caps)) class lists of n * n entries; it
        # waits for n * n nodes per strength, n codes each.
        gate = n * n * min(cost - 1, strongest)
        examined += extend(start, -1, cost, 0, 1, members, 0 if best is None else n - 1)
        if found:
            return cost, examined, checked, built, found
    return None, examined, checked, built, found


def solve_dim(g: Graph, d: Optional[DistanceMatrix] = None) -> SolverResult:
    """Compute the metric dimension with a lex-least minimum resolving set
    (the k = n - 1 case)."""
    return _solve_truncated(g, g.n - 1, d, "dim")


def solve_dim_k(g: Graph, k: int, d: Optional[DistanceMatrix] = None) -> SolverResult:
    """Compute the distance-k dimension (codes truncated at k + 1)."""
    if k <= 0:
        raise ValueError("truncation parameter k must be positive")
    return _solve_truncated(g, k, d, "dim_k")


def solve_adim(g: Graph, d: Optional[DistanceMatrix] = None) -> SolverResult:
    """Compute the adjacency dimension (the k = 1 case)."""
    return _solve_truncated(g, 1, d, "adim")


def _solve_truncated(g: Graph, k: int, d: Optional[DistanceMatrix], kind: str) -> SolverResult:
    """Search vertex subsets by ascending size, lexicographic within a size,
    each landmark's row truncated at k + 1; from the level `_level_proof`
    picks, the pair tables rule out the levels below the value and steer
    the walk to the witness."""
    n = g.n
    if n == 0:
        raise ValueError("graph has no vertices")
    if n == 1:
        return SolverResult(kind, 1, (0,), 0, 1, 0)
    if d is None:
        d = all_pairs_distances(g)
    # Truncating at k + 1 >= n only moves the sentinel n to k + 1, still
    # above every distance, so the raw rows give the same code classes.
    rows = d.dist if k + 1 >= n else d.truncated(k)
    twins = d.twins
    lb = max(1, twins.forced_minimum())
    size, examined, checked, built, found = _search((None, rows), (1,) * n, lb, twins.groups, False)
    if size is None:
        raise RuntimeError("subset search exhausted without a resolving set")
    return SolverResult(kind, size, next(zip(*found[0])), examined, lb, checked, built)


def _level_proof(rows, n: int, lb: int) -> Optional[int]:
    """Return the level from which a subset search over the landmark rows
    `rows`, from level lb, may walk each level by the pair tables, or None
    when it never does.

    The tables run only when the class-count bound is idle
    (`_counting_idle`: some row gains at least (n - 2)/2 classes) and
    n >= 12. The start is the first level above lb with more than
    4 * C(n, 2) subsets, a count of plain binomials. The scan checks the
    levels below it as before, so a solve whose witness lies there builds
    no table. From the start on, a level is empty exactly when no set of
    that size separates every pair (`_separable`); a larger set resolves
    whenever a smaller one does, so the first level it does not rule out
    is the value, and the same branch and bound steers its walk to the
    lex-least witness.
    """
    if n < 12 or not _counting_idle(rows, n):
        # The class-count bound works, or the solve is small.
        return None
    most = 4 * comb(n, 2)
    return next((size for size in range(lb + 1, n) if comb(n, size) > most), None)


_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _pair_tables(rows) -> tuple[list[int], list[int]]:
    """Return (seps, covers), the pair-separation tables of the symmetric
    rows of n >= 2 landmarks: seps[p] is the bitmask of the landmarks z
    with rows[z][x] != rows[z][y] for the p-th pair x < y, and covers[z]
    the bitmask of the pairs z separates, bit p for the p-th pair.

    The pairs are numbered by ascending count of separators, ties in
    `combinations` order, so the lowest bit of any mask of pairs is the
    pair in it with the fewest separators. rows[z][x] = rows[x][z], so
    pair (x, y) compares rows x and y entry by entry; its comparison,
    spelled out as a binary numeral from landmark n - 1 down and parsed by
    `int`, is its entry of seps, and the columns of those numerals, from
    the last pair up, are the numerals of the covers.
    """
    back = [row[::-1] for row in rows]
    bits = sorted(
        (bytes(map(ne, back[x], back[y])).translate(_BITS) for x, y in combinations(range(len(rows)), 2)),
        key=lambda sep: sep.count(b"1"),
    )
    covers = [int(bytes(col), 2) for col in zip(*reversed(bits))]
    return [int(sep, 2) for sep in bits], covers[::-1]


def _separable(seps: list[int], covers: list[int], budget: int, open_: int, avail: int) -> bool:
    """Whether at most `budget` >= 1 of the landmarks in the bitmask
    `avail` separate every pair in the bitmask `open_`, for the tables of
    `_pair_tables`: a branch and bound over hitting sets.

    Every hitting set holds a separator of the lowest open pair, the one
    with the fewest separators. A node takes each of its available
    separators in turn and excludes it from the branches after its own,
    so every hitting set lies in some branch; a branch fails when its
    budget runs out with a pair still open. There is no other cut: each
    node reads one entry of `seps`, and one of `covers` per branch,
    however many pairs are open.
    """

    def feasible(open_: int, avail: int, budget: int) -> bool:
        sep = seps[(open_ & -open_).bit_length() - 1] & avail
        while sep:
            low = sep & -sep
            avail ^= low
            rest = open_ & ~covers[low.bit_length() - 1]
            if not rest or budget > 1 and feasible(rest, avail, budget - 1):
                return True
            sep ^= low
        return False

    return not open_ or feasible(open_, avail, budget)


def broadcast_value_caps(g: Graph, d: Optional[DistanceMatrix] = None) -> tuple[int, ...]:
    """Per-vertex strength caps that no minimum resolving broadcast exceeds.

    With every vertex reachable from v, strengths beyond ecc(v) - 1 leave
    all of v's code entries at the exact distances. When v has unreachable
    vertices their entries are pinned at f(v) + 1, so the cap must stay at
    ecc_finite(v) to keep them strictly above every reachable distance;
    beyond that the separation relation no longer changes. Either way,
    lowering a value to the cap preserves resolution and strictly lowers
    cost, so no minimum broadcast sits above the caps. bdim's search and
    `enumerate_min_broadcasts`, which lists every minimum broadcast, both
    scan capped vectors alone.
    """
    if d is None:
        d = all_pairs_distances(g)
    prof = d.profile
    drop = 1 if prof.connected else 0
    return tuple(max(1, ecc - drop) for ecc in prof.finite_eccentricities)


def _vector(n: int, support) -> tuple[int, ...]:
    """Spell out a vector given as (vertex, strength) pairs."""
    vec = [0] * n
    for z, v in support:
        if not 0 <= z < n:
            raise ValueError(f"landmark {z} out of range")
        vec[z] = v
    return tuple(vec)


def _broadcast_search(g: Graph, d: Optional[DistanceMatrix], collect: bool):
    """Run bdim's search on g, n >= 1, and return its starting lower bound
    followed by what `_search` returns; with `collect`, its vectors are
    every minimum broadcast."""
    n = g.n
    if d is None:
        d = all_pairs_distances(g)
    caps = broadcast_value_caps(g, d)
    twins = d.twins
    # The proved lower bounds: diameter/3, twin support and counting.
    lb = max(1, -(-d.profile.finite_diameter // 3), twins.forced_minimum(), counting_floor(n, 2))
    # rows[i][z] = code row of z at strength i (None above z's cap)
    rows = [None] + [
        [row if i <= cap else None for row, cap in zip(d.truncated(i), caps)]
        for i in range(1, max(caps) + 1)
    ]
    return (lb, *_search(rows, caps, lb, twins.groups, True, collect))


def solve_bdim(g: Graph, d: Optional[DistanceMatrix] = None) -> SolverResult:
    """Compute the broadcast dimension with a lex-least minimum broadcast.

    Cost levels ascend from the largest proved lower bound, with strengths
    capped by `broadcast_value_caps`, which no minimum broadcast exceeds;
    vectors that fail the twin or counting condition are not checked.
    """
    n = g.n
    if n == 0:
        raise ValueError("graph has no vertices")
    if n == 1:
        return SolverResult("bdim", 1, Broadcast((1,)), 0, 1, 0)
    lb, cost, examined, checked, built, found = _broadcast_search(g, d, False)
    return SolverResult("bdim", cost, Broadcast(_vector(n, found[0])), examined, lb, checked, built)


def enumerate_min_broadcasts(g: Graph, d: Optional[DistanceMatrix] = None) -> EnumerationResult:
    """List every minimum-cost resolving broadcast, in lexicographic order.

    This is bdim's search, collecting every resolving vector of the first
    cost that has one. Its caps and lower bound hold for every minimum
    broadcast, and only vectors that cannot resolve (the twin and counting
    filters) are skipped, so the output is the whole optimum set.
    """
    n = g.n
    if n == 0:
        raise ValueError("graph has no vertices")
    _, cost, _, _, _, found = _broadcast_search(g, d, True)
    return EnumerationResult(cost, tuple(_vector(n, sup) for sup in found))


def _canonical_shape(g: Graph) -> Optional[str]:
    """Return "path" or "cycle" if g uses the canonical ring numbering."""
    n = g.n
    path_edges = {(i, i + 1) for i in range(n - 1)}
    edges = set(g.edges())
    if edges == path_edges:
        return "path"
    if n >= 3 and edges == path_edges | {(0, n - 1)}:
        return "cycle"
    return None


def flatten_path_cycle_broadcast(g: Graph, f, d: Optional[DistanceMatrix] = None) -> Broadcast:
    """Rewrite a resolving broadcast on a canonical path or cycle into a
    0/1-valued one of no greater cost.

    One step picks the lowest vertex j with value x > 1 and replaces it:
    x = 2 sends 1 to both ring neighbours and 0 to j, except at a path end
    where the end keeps 1 and its neighbour gains 1; x > 2 keeps x - 2 at
    j and sends 1 to the two vertices at ring offset x - 1. A target other
    than j keeps the maximum of its current and incoming value; j itself
    is replaced outright. Repeats until all values are 0/1.

    The local rewriting can reach a non-resolving fixed point for some
    non-minimum inputs (C_4 with strengths (2, 1, 0, 0) ends at the
    non-resolving (0, 1, 0, 1)). When that happens the result is replaced
    by the lex-least minimum 0/1-valued resolving broadcast, which is
    still never costlier: any resolving broadcast costs at least the
    optimal 0/1 cost on these graphs. Every check and the fallback solve
    run on the distance matrix `d` if given.
    """
    shape = _canonical_shape(g)
    if shape is None:
        raise ValueError("graph is not a canonical-numbered path or cycle")
    n = g.n
    if n < 4:
        raise ValueError("flattening needs order at least 4")
    if d is None:
        d = all_pairs_distances(g)
    verdict = is_resolving_broadcast(g, f, d)
    if not verdict:
        raise ValueError(f"broadcast is not resolving (pair {verdict.unresolved_pair})")
    vals = list(f.values if isinstance(f, Broadcast) else f)
    original_cost = sum(vals)
    while (j := next((v for v in range(n) if vals[v] > 1), None)) is not None:
        x = vals[j]
        if x == 2 and shape == "path" and j in (0, n - 1):
            vals[j] = 1
            targets = (1 if j == 0 else n - 2,)
        else:
            vals[j] = x - 2
            targets = ((j - x + 1) % n, (j + x - 1) % n)
        for t in targets:
            if t != j:
                vals[t] = max(vals[t], 1)
    result = Broadcast(tuple(vals))
    if not is_resolving_broadcast(g, result, d):
        result = Broadcast(_vector(n, ((v, 1) for v in solve_adim(g, d).witness)))
    if result.cost > original_cost:
        raise RuntimeError("flattening increased the cost")
    if not is_resolving_broadcast(g, result, d):
        raise RuntimeError("flattened broadcast stopped resolving")
    return result


def delete_vertex(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Delete v and renumber densely; also return new-id -> old-id."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    keep = [u for u in range(g.n) if u != v]
    new_id = {u: i for i, u in enumerate(keep)}
    edges = [(new_id[a], new_id[b]) for a, b in g.edges() if a != v and b != v]
    return build_graph(g.n - 1, edges), tuple(keep)


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Delete one edge, keeping the vertex numbering."""
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u}, {v}) not present")
    edges = [(a, b) for a, b in g.edges() if {a, b} != {u, v}]
    return build_graph(g.n, edges)


def revalidate(
    g: Graph, result: SolverResult, k: Optional[int] = None, d: Optional[DistanceMatrix] = None
) -> bool:
    """Re-check a solver witness as a strength vector, on the distance
    matrix `d` if given: a set witness puts each landmark at n - 1 (dim),
    1 (adim) or k (dim_k), and a bdim witness is checked as it is."""
    if g.n == 1:
        return result.value == 1
    if result.kind == "dim_k" and k is None:
        raise ValueError("dim_k revalidation needs k")
    strength = {"dim": g.n - 1, "adim": 1, "dim_k": k}
    if result.kind == "bdim":
        f = result.witness
    elif result.kind in strength:
        f = _vector(g.n, ((z, strength[result.kind]) for z in result.witness))
    else:
        raise ValueError(f"unknown result kind {result.kind!r}")
    return bool(is_resolving_broadcast(g, f, d))
