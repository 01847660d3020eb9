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
or the broadcast itself.

One search kernel, `_search`, serves them all. It walks the vectors of
one cost at a time, depth first, in lexicographic order: sorted-subset
order for sets and value-vector order for broadcasts. Each step fixes
the next support vertex and its strength and refines every vertex's code
by that one landmark; codes are ints, `code * base + entry`, built with
one C-level `map(add, ...)` per step, and a vector resolves when
`len(set(map(add, prefix, row))) == n`. The first resolving vector is
therefore the lexicographically least witness; `enumerate_min_broadcasts`
runs the same search but collects every resolving vector.

A vector is a candidate unless it leaves two members of one twin group
at strength 0 or, for bdim and the enumerator, fails the counting
condition |supp| + prod(f + 1) >= n. Neither kind of vector can resolve;
the kernel cuts a subtree only when every vector in it is of one of
those kinds, and never examines them. `candidates_examined` counts the
candidates in lexicographic order, level after level, up to and
including the first resolving one, so it does not depend on how the
search is implemented.

The kernel also skips a subtree whose codes have too few classes for
its remaining cost to make them all distinct, the counting argument of
the broadcast lower bound applied at each node (`_class_cuts`). Its
candidates cannot resolve, but they are candidates: the kernel counts
them instead of checking them. The count comes from the same walk run
in its counting mode, which builds no code, checks no leaf and memoises
each count, so there is one walk of the enumeration to keep right.
`candidates_examined` is therefore unchanged, and `candidates_checked`
says how many had their codes compared.

For sets, the exponential part of a solve is mostly the proof that no
smaller set resolves, not the search for the witness. A set resolves
exactly when it holds, for every pair of vertices, a landmark whose row
separates them: a hitting set over pairs (Khuller, Raghavachari and
Rosenfeld, 1996). So dim, dim_k and adim find the value first. From the
first level whose candidates outnumber the entries of the pair table
(`_pair_table`), each level is tested by a branch and bound over that
table (`_separable`) before it is scanned; a level it shows empty is
walked in counting mode, and the first level it cannot rule out is
scanned for the lex-least witness. The test runs only when the class
cut is idle and that level lies above the first one scanned
(`_level_proof`); below it the scan runs as before. So the counts stay
the same, and `candidates_checked` leaves out the proved levels too.

Order-1 graphs take value 1 by convention for all parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, count
from math import comb
from operator import add, ne
from typing import Callable, Iterable, Optional, Sequence, Union

from .graphs import DistanceMatrix, Graph, all_pairs_distances, build_graph, truncated_row
from .resolution import Broadcast, is_resolving_broadcast


@dataclass(frozen=True)
class SolverResult:
    """Optimal value with its witness and basic search statistics."""

    kind: str
    value: int
    witness: Union[tuple[int, ...], Broadcast]
    candidates_examined: int
    lower_bound_used: int
    # The candidates whose codes were compared; the rest of those examined
    # were counted in subtrees the class-count cut skipped or in levels the
    # pair-separation proof showed empty.
    candidates_checked: int


@dataclass(frozen=True)
class EnumerationResult:
    """Every minimum-cost resolving broadcast, in lexicographic order."""

    optimal_cost: int
    broadcasts: tuple[tuple[int, ...], ...]


def _class_cuts(rows, n: int, upto: int) -> list[int]:
    """Return cut[r] for r <= upto: a node with remaining cost r >= 2 whose
    codes fall into fewer than cut[r] classes has no resolving vector below
    it (cut[0] = cut[1] = 0, as such nodes are not checked). A cut of at
    most 2 never applies: below the root every node has a support vertex,
    whose code alone has a 0, so its codes fall into at least 2 classes.

    Refining codes by a row whose value x is shared by m vertices adds at
    most n - m classes, since each class gains at most one class per member
    whose entry is not x; here x = max(row). So rows of total strength r
    add at most the best split of r over strengths, each strength counted
    at its largest row gain.
    """
    top = 0  # the largest strength-1 row gain
    for row in rows[1]:
        gain = n - row.count(max(row))
        if gain > top:
            top = gain
            if 2 * top >= n - 2:
                # Every cut is at most 2.
                return [0] * (upto + 1)
    best = [r * top for r in range(upto + 1)]  # best[r]: most classes cost r adds
    for v in range(2, min(upto, len(rows) - 1) + 1):
        gain = n - min(row.count(max(row)) for row in rows[v] if row is not None)
        for r in range(v, upto + 1):
            if gain + best[r - v] > best[r]:
                best[r] = gain + best[r - v]
    return [0, 0] + [n - b for b in best[2:]]


def _search(
    rows,
    caps: Sequence[int],
    levels: Iterable[int],
    base: int,
    need: int,
    groups,
    descending: bool,
    collect: bool = False,
    empty: Optional[Callable[[int], bool]] = None,
) -> tuple[Optional[int], int, int, list[tuple[tuple[int, int], ...]]]:
    """Scan strength vectors level by level, each cost of `levels` in turn
    and lexicographic order within a cost, for ones whose codes are all
    distinct; stop after the first level that has one. A level for which
    `empty(cost)` holds is known to have no such vector: its candidates
    are counted, not checked. `empty` is asked about each level in turn,
    before it is scanned, and not after a level that resolves.

    A vector is built one support vertex at a time: each step picks the
    next vertex z above the previous one and a strength 1 <= v <= caps[z],
    and refines every vertex's code with the row `rows[v][z]`. Codes are
    ints, `code * base + entry`, so `base` must exceed every row entry.
    With `descending` the next vertex is tried from the top down and
    strengths from the bottom up, which is ascending value-vector order;
    otherwise vertices go up (all caps 1), which is ascending sorted-subset
    order.

    A vector is a candidate unless it leaves two members of one group of
    `groups` at strength 0, or it fails `|supp| + prod(f + 1) >= need`;
    groups of one vertex constrain nothing. A subtree is cut only when none
    of its vectors can be a candidate. Below a node whose codes have too
    few classes for its remaining cost to finish (`_class_cuts`) no vector
    resolves: the walk goes on there in counting mode, which counts the
    candidates without building or checking codes. A level `empty` rules
    out is walked from the root in counting mode. Returns the cost
    reached (None if the levels ran out), the number of candidates
    examined, how many of those were checked, and the resolving vectors at
    that cost as (vertex, strength) pairs: the first one, or with
    `collect` all of them.
    """
    n = len(caps)
    # after[z] = sum(caps[z + 1:]), the most cost the vertices above z take.
    after = list(accumulate(caps[:0:-1], initial=0))[::-1]
    ones = rows[1]
    masks = [sum(map((1).__lshift__, grp)) for grp in groups if len(grp) > 1]
    members = sum(masks)
    top = 1 << n
    counted = 0
    cut = [0, 0]
    memo: dict[tuple[int, int, int, int, int], int] = {}
    path: list[tuple[int, int]] = []
    found: list[tuple[tuple[int, int], ...]] = []

    def extend(codes, last: int, rem: int, supp: int, weight: int, zeros: int) -> int:
        """Try every way to spend `rem` more on vertices above `last`, and
        return the number of candidates examined below this node.

        `codes` holds each vertex's code so far, times `base`; the vector
        so far has `supp` support vertices, prod(f + 1) = `weight`, and
        the vertices up to `last` at strength 0 in the bitmask `zeros`.
        The walk stops at the first resolving vector unless it collects.
        With `codes` None it counts every candidate below instead, builds
        no code, and memoises the count on what the walk reads: |supp| and
        the product only matter up to `need`, and `zeros` only on twin
        group members.
        """
        nonlocal counted
        if codes is None:
            key = (last, rem, min(supp, need), min(weight, need), zeros & members)
            total = memo.get(key)
            if total is not None:
                return total
        supp += 1  # counting the next support vertex
        hi = n  # the next support vertex is below hi
        owed = 0  # support vertices still owed to twin groups
        owing = 0  # the members that can pay them
        still = 0
        skipped = 0
        if masks:
            above = top - (1 << (last + 1))
            for m in masks:
                # The group's members left at 0 if nothing above `last` is
                # chosen; all but one of them must still be chosen, and the
                # next vertex may not skip two of them.
                t = (zeros | above) & m
                u = t & (t - 1)
                if u:
                    p = (u & -u).bit_length()
                    if p < hi:
                        hi = p
                    owed += t.bit_count() - 1
                    owing |= t
        zs = range(hi - 1, last, -1) if descending else range(last + 1, hi)
        total = 0
        if rem == 1:
            # Every child is a leaf at strength 1.
            if supp + 2 * weight >= need:
                if codes is None:
                    total = sum(owed <= owing >> z & 1 for z in zs)
                else:
                    for z in zs:
                        if owed > owing >> z & 1:
                            continue
                        total += 1
                        if len(set(map(add, codes, ones[z]))) == n:
                            found.append((*path, (z, 1)))
                            if not collect:
                                return total
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
                    skipped = zeros | ((1 << z) - (1 << (last + 1)))
                for v in range(lo if lo > 1 else 1, cap + 1 if cap < rem else rem):
                    left = rem - v
                    w = weight * (v + 1)
                    # Each unit of cost left adds at most one support vertex
                    # and doubles the product at most, so supp + left +
                    # w * 2**left bounds |supp| + prod(f + 1) below here. It
                    # falls as v grows, and so does `left`.
                    if still > left or supp + left + (w << left) < need:
                        break
                    if codes is None:
                        total += extend(None, z, left, supp, w, skipped)
                        continue
                    nxt = [c * base for c in map(add, codes, rows[v][z])]
                    # The candidates below a cut are counted, not checked.
                    if cut[left] > 2 and len(set(nxt)) < cut[left]:
                        below = extend(None, z, left, supp, w, skipped)
                        counted += below
                        total += below
                        continue
                    path.append((z, v))
                    total += extend(nxt, z, left, supp, w, skipped)
                    if found and not collect:
                        return total
                    path.pop()
                if cap < rem or still or not ends:
                    continue
                total += 1
                if codes is not None and len(set(map(add, codes, ends[z]))) == n:
                    found.append((*path, (z, rem)))
                    if not collect:
                        return total
        if codes is None:
            memo[key] = total
        return total

    start = [0] * n
    examined = 0
    for cost in levels:
        if cost + (1 << cost) >= need:
            if empty is not None and empty(cost):
                below = extend(None, -1, cost, 0, 1, 0)
                counted += below
                examined += below
                continue
            if len(cut) < cost:
                cut = _class_cuts(rows, n, cost - 1)
            examined += extend(start, -1, cost, 0, 1, 0)
            if found:
                return cost, examined, examined - counted, found
    return None, examined, examined - counted, found


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
    each landmark's row truncated at k + 1; the pair-separation proof
    (`_level_proof`) rules out the large levels below the value."""
    n = g.n
    if n == 0:
        raise ValueError("graph has no vertices")
    if n == 1:
        return SolverResult(kind, 1, (0,), 0, 1, 0)
    if d is None:
        d = all_pairs_distances(g)
    # Truncating at k + 1 >= n only moves the sentinel n to k + 1, still
    # above every distance, so the raw rows give the same code classes.
    rows = d.dist if k + 1 >= n else [truncated_row(row, k, n) for row in d.dist]
    twins = d.twins
    lb = max(1, twins.forced_minimum())
    empty = _level_proof(rows, n, lb, twins.groups)
    size, examined, checked, found = _search(
        (None, rows), (1,) * n, range(lb, n), max(n, k + 2), 0, twins.groups, False, empty=empty
    )
    if size is None:
        raise RuntimeError("subset search exhausted without a resolving set")
    return SolverResult(kind, size, next(zip(*found[0])), examined, lb, checked)


def _level_proof(rows, n: int, lb: int, groups) -> Optional[Callable[[int], bool]]:
    """Return the `empty` test of a subset search over the landmark rows
    `rows` from level lb, or None when the proof does not run.

    It runs when the class cut is idle (some row gains at least (n - 2)/2
    classes, so every cut of `_class_cuts` is 0) and the first level L that
    holds more candidates than the pair table has entries, n * C(n, 2),
    lies above lb. The scan checks the levels below L as before, so the
    table is built only after the scan has checked a whole level with
    more than 1/n as many candidates as the table has entries, and never
    for a solve whose witness lies below L. From L on, a level
    is empty exactly when no set of that size separates every pair
    (`_separable`); a larger set resolves whenever a smaller one does, so
    the first level it does not rule out is the value.
    """
    entries = n * comb(n, 2)
    if comb(n, n // 2) <= entries:
        # No level can outnumber the table: n <= 11.
        return None
    # cands[s]: the s-subsets that leave at most one member of each twin
    # group out, i.e. the candidates of level s.
    cands = [1]
    for grp in groups:
        m = len(grp)
        nxt = [0] * (len(cands) + m)
        for s, c in enumerate(cands):
            nxt[s + m] += c
            nxt[s + m - 1] += c * m
        cands = nxt
    big = next((size for size in range(lb, n) if cands[size] > entries), None)
    if big is None or big == lb or any(_class_cuts((None, rows), n, 2)):
        return None
    table: list[list[int]] = []

    def empty(size: int) -> bool:
        if size < big:
            return False
        if not table:
            table.extend(_pair_table(rows))
        return not _separable(*table, size)

    return empty


_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _pair_table(rows) -> tuple[list[int], list[int]]:
    """Return the pair-separation table of the rows of n >= 2 landmarks:
    for each pair x < y, in `combinations` order, the bitmask of the
    landmarks z with rows[z][x] != rows[z][y]; and for each landmark, the
    bitmask of the pairs it separates. Each mask is spelled out as a
    binary numeral, highest bit first, and parsed by `int`."""
    n = len(rows)
    pairs = list(combinations(range(n), 2))
    xs = [x for x, _ in reversed(pairs)]
    ys = [y for _, y in reversed(pairs)]
    covers = [
        int(bytes(map(ne, map(row.__getitem__, xs), map(row.__getitem__, ys))).translate(_BITS), 2)
        for row in rows
    ]
    # cols[x][j] = rows[n - 1 - j][x]: landmark n - 1 first.
    cols = [col[::-1] for col in zip(*rows)]
    seps = [int(bytes(map(ne, cols[x], cols[y])).translate(_BITS), 2) for x, y in pairs]
    return seps, covers


def _separable(seps: list[int], covers: list[int], budget: int) -> bool:
    """Whether at most `budget` landmarks separate every pair of a
    `_pair_table`: a branch and bound over hitting sets.

    A node branches on the open pair with the fewest landmarks still
    available, taking each of them in turn and excluding it from the
    branches after its own, so every hitting set lies in some branch.
    Pairs whose available separators are pairwise disjoint each need a
    landmark of their own, so a node is cut when a greedy packing of such
    pairs, fewest separators first, holds more pairs than the budget left.
    """

    def feasible(open_: int, avail: int, budget: int) -> bool:
        if budget == 1:
            # One landmark must separate every open pair.
            while open_:
                low = open_ & -open_
                avail &= seps[low.bit_length() - 1]
                if not avail:
                    return False
                open_ ^= low
            return True
        options = []
        rest = open_
        while rest:
            low = rest & -rest
            sep = seps[low.bit_length() - 1] & avail
            if not sep:
                return False
            options.append((sep.bit_count(), sep))
            rest ^= low
        options.sort()
        used = packed = 0
        for _, sep in options:
            if not sep & used:
                used |= sep
                packed += 1
                if packed > budget:
                    return False
        sep = options[0][1]
        while sep:
            low = sep & -sep
            rest = open_ & ~covers[low.bit_length() - 1]
            if not rest or feasible(rest, avail ^ low, budget - 1):
                return True
            avail ^= low
            sep ^= low
        return False

    return feasible((1 << len(seps)) - 1, (1 << len(covers)) - 1, budget)


def broadcast_value_caps(g: Graph, d: Optional[DistanceMatrix] = None) -> tuple[int, ...]:
    """Per-vertex strength caps that no minimum resolving broadcast exceeds.

    With every vertex reachable from v, strengths beyond ecc(v) - 1 leave
    all of v's code entries at the exact distances. When v has unreachable
    vertices their entries are pinned at f(v) + 1, so the cap must stay at
    ecc_finite(v) to keep them strictly above every reachable distance;
    beyond that the separation relation no longer changes. Either way,
    lowering a value to the cap preserves resolution and strictly lowers
    cost, so no minimum broadcast sits above the caps.
    """
    if d is None:
        d = all_pairs_distances(g)
    prof = d.profile
    drop = 1 if prof.connected else 0
    return tuple(max(1, ecc - drop) for ecc in prof.finite_eccentricities)


def _counting_lower_bound(n: int) -> int:
    """Smallest cost s whose best support split can satisfy
    |supp| + prod(f+1) >= n."""
    if n <= 2:
        return 1
    for s in count(1):
        best = 0
        for y in range(1, s + 1):
            q, r = divmod(s, y)
            best = max(best, y + (q + 2) ** r * (q + 1) ** (y - r))
        if best >= n:
            return s
    raise AssertionError("unreachable")


def _vector(n: int, support) -> tuple[int, ...]:
    """Spell out a vector given as (vertex, strength) pairs."""
    vec = [0] * n
    for z, v in support:
        if not 0 <= z < n:
            raise ValueError(f"landmark {z} out of range")
        vec[z] = v
    return tuple(vec)


def solve_bdim(g: Graph, d: Optional[DistanceMatrix] = None) -> SolverResult:
    """Compute the broadcast dimension with a lex-least minimum broadcast.

    Cost levels ascend from the largest of the proved lower bounds
    (diameter/3, twin support, counting). Candidates violating the twin
    constraint or the counting condition are pruned before the full code
    check; per-vertex strengths are capped by `broadcast_value_caps`,
    which no minimum broadcast exceeds.
    """
    n = g.n
    if n == 0:
        raise ValueError("graph has no vertices")
    if n == 1:
        return SolverResult("bdim", 1, Broadcast((1,)), 0, 1, 0)
    if d is None:
        d = all_pairs_distances(g)
    caps = broadcast_value_caps(g, d)
    twins = d.twins
    lb = max(
        1,
        -(-d.profile.finite_diameter // 3),
        twins.forced_minimum(),
        _counting_lower_bound(n),
    )
    # rows[i][z] = code row of z at strength i (None above z's cap)
    rows = [None] + [
        [truncated_row(drow, i, n) if i <= cap else None for drow, cap in zip(d.dist, caps)]
        for i in range(1, max(caps) + 1)
    ]
    cost, examined, checked, found = _search(rows, caps, count(lb), n + 1, n, twins.groups, True)
    return SolverResult("bdim", cost, Broadcast(_vector(n, found[0])), examined, lb, checked)


def enumerate_min_broadcasts(g: Graph, d: Optional[DistanceMatrix] = None) -> EnumerationResult:
    """List every minimum-cost resolving broadcast.

    Ascending-cost scan over all uncapped vectors of each cost; the first
    level with any resolving broadcast is returned in full, in
    lexicographic order. Only vectors that cannot resolve (the twin and
    counting filters) are skipped, so the output is the whole optimum set.
    """
    n = g.n
    if n == 0:
        raise ValueError("graph has no vertices")
    if d is None:
        d = all_pairs_distances(g)
    groups = d.twins.groups
    rows = [None]
    for s in count(1):
        rows.append([truncated_row(drow, s, n) for drow in d.dist])
        *_, found = _search(rows, (s,) * n, (s,), max(n, s + 2), n, groups, True, collect=True)
        if found:
            return EnumerationResult(s, tuple(_vector(n, sup) for sup in found))


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


def flatten_path_cycle_broadcast(g: Graph, f) -> Broadcast:
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
    optimal 0/1 cost on these graphs.
    """
    shape = _canonical_shape(g)
    if shape is None:
        raise ValueError("graph is not a canonical-numbered path or cycle")
    n = g.n
    if n < 4:
        raise ValueError("flattening needs order at least 4")
    d = all_pairs_distances(g)
    verdict = is_resolving_broadcast(g, f, d)
    if not verdict:
        raise ValueError(f"broadcast is not resolving (pair {verdict.unresolved_pair})")
    vals = list(f.values if isinstance(f, Broadcast) else f)
    original_cost = sum(vals)
    while True:
        try:
            j = next(v for v in range(n) if vals[v] > 1)
        except StopIteration:
            break
        x = vals[j]
        assigned: dict[int, int] = {}

        def put(v: int, value: int) -> None:
            assigned[v] = max(assigned.get(v, 0), value)

        if x == 2:
            if shape == "path" and j == 0:
                put(0, 1)
                put(1, 1)
            elif shape == "path" and j == n - 1:
                put(n - 1, 1)
                put(n - 2, 1)
            else:
                put((j - 1) % n, 1)
                put((j + 1) % n, 1)
                put(j, 0)
        else:
            put(j, x - 2)
            put((j - x + 1) % n, 1)
            put((j + x - 1) % n, 1)
        for v, value in assigned.items():
            vals[v] = value if v == j else max(vals[v], value)
    result = Broadcast(tuple(vals))
    if not is_resolving_broadcast(g, result, d):
        witness = solve_adim(g, d).witness
        ones = [0] * n
        for v in witness:
            ones[v] = 1
        result = Broadcast(tuple(ones))
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
