"""The exhaustive scans the solvers used before the incremental search
kernel, kept verbatim as a test-only oracle, with the split search for
the counting lower bound the solvers used then. The one edit: results
now also record the candidates checked, which for these scans are all of
the candidates examined.

`tests/test_kernel_equivalence.py` checks that the kernel-backed solvers
return the same value, witness, candidate count and starting bound as
these scans, and that the enumerator returns the same broadcasts.
"""

from __future__ import annotations

from itertools import combinations, count
from math import prod
from typing import Iterator, Optional

from resolvedim.graphs import (
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    metric_profile,
    twin_partition,
)
from resolvedim.resolution import Broadcast, is_resolving_broadcast
from resolvedim.solvers import EnumerationResult, SolverResult, broadcast_value_caps


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


def _solve_by_subsets(g: Graph, rows, kind: str) -> SolverResult:
    """Scan vertex subsets by ascending size, lexicographic within a size.

    `rows[z][v]` is the code entry vertex z contributes to v. Subsets
    leaving two members of one twin group unchosen cannot resolve and
    are skipped without being counted.
    """
    n = g.n
    if n == 0:
        raise ValueError("graph has no vertices")
    if n == 1:
        return SolverResult(kind, 1, (0,), 0, 1, 0)
    twins = twin_partition(g)
    lb = max(1, twins.forced_minimum())
    groups = [set(grp) for grp in twins.groups if len(grp) > 1]
    examined = 0
    for size in range(lb, n):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            if any(len(grp - chosen) > 1 for grp in groups):
                continue
            examined += 1
            codes = set(zip(*(rows[z] for z in subset)))
            if len(codes) == n:
                return SolverResult(kind, size, subset, examined, lb, examined)
    raise RuntimeError("subset search exhausted without a resolving set")


def _truncated_rows(g: Graph, d: DistanceMatrix, k: int) -> tuple[tuple[int, ...], ...]:
    n = g.n
    return tuple(
        tuple(k + 1 if x >= n else min(x, k + 1) for x in row) for row in d.dist
    )


def _compositions(total: int, caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Yield all capped compositions of `total` in lexicographic order."""
    n = len(caps)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]
    vec = [0] * n

    def rec(i: int, rem: int) -> Iterator[tuple[int, ...]]:
        if rem > suffix[i]:
            return
        if i == n - 1:
            vec[i] = rem
            yield tuple(vec)
            return
        for val in range(min(caps[i], rem) + 1):
            vec[i] = val
            yield from rec(i + 1, rem - val)

    if n == 0:
        return
    yield from rec(0, total)


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
    prof = metric_profile(g, d)
    caps = broadcast_value_caps(g, d)
    twins = twin_partition(g)
    groups = [set(grp) for grp in twins.groups if len(grp) > 1]
    lb = max(
        1,
        -(-prof.finite_diameter // 3),
        twins.forced_minimum(),
        _counting_lower_bound(n),
    )
    # rows_by_strength[z][i] = code row of z at strength i (index 0 unused)
    rows_by_strength = []
    for z in range(n):
        drow = d.dist[z]
        per = [None]
        for i in range(1, caps[z] + 1):
            per.append(tuple(i + 1 if x >= n else min(x, i + 1) for x in drow))
        rows_by_strength.append(per)
    examined = 0
    for s in count(lb):
        for vec in _compositions(s, caps):
            if any(sum(1 for v in grp if vec[v] == 0) > 1 for grp in groups):
                continue
            supp = [z for z in range(n) if vec[z] > 0]
            if len(supp) + prod(vec[z] + 1 for z in supp) < n:
                continue
            examined += 1
            codes = set(zip(*(rows_by_strength[z][vec[z]] for z in supp)))
            if len(codes) == n:
                return SolverResult("bdim", s, Broadcast(vec), examined, lb, examined)


def enumerate_min_broadcasts(g: Graph, d: Optional[DistanceMatrix] = None) -> EnumerationResult:
    """List every minimum-cost resolving broadcast.

    Plain ascending-cost scan over all uncapped compositions of each cost;
    the first level with any resolving broadcast is returned in full, in
    lexicographic order. No pruning is applied, so the output is the whole
    optimum set.
    """
    n = g.n
    if n == 0:
        raise ValueError("graph has no vertices")
    if d is None:
        d = all_pairs_distances(g)
    for s in count(1):
        found = [
            vec
            for vec in _compositions(s, (s,) * n)
            if is_resolving_broadcast(g, vec, d)
        ]
        if found:
            return EnumerationResult(s, tuple(found))


def solve_dim(g: Graph, d: Optional[DistanceMatrix] = None) -> SolverResult:
    """Metric dimension through the seed subset scan."""
    if g.n > 1 and d is None:
        d = all_pairs_distances(g)
    return _solve_by_subsets(g, d.dist if g.n > 1 else (), "dim")


def solve_dim_k(g: Graph, k: int, d: Optional[DistanceMatrix] = None) -> SolverResult:
    """Distance-k dimension through the seed subset scan."""
    if g.n <= 1:
        return _solve_by_subsets(g, (), "dim_k")
    if d is None:
        d = all_pairs_distances(g)
    return _solve_by_subsets(g, _truncated_rows(g, d, k), "dim_k")
