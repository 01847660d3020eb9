"""Resolving codes and the predicates deciding whether a set or a
broadcast tells every pair of vertices apart.

A broadcast assigns each vertex a nonnegative strength f(v); a vertex z
with f(z) = i contributes the entry min(d(v, z), i + 1) to every code,
with unreachable pairs pinned at i + 1. Metric codes keep raw distances
(sentinel included) and adjacency codes are the strength-1 special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

from .graphs import (
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    truncated_distance,
    truncated_row,
)


@dataclass(frozen=True)
class Broadcast:
    """Immutable strength vector over the vertices of one graph."""

    values: tuple[int, ...]

    @property
    def cost(self) -> int:
        """Return the sum of all strengths."""
        return sum(self.values)

    @property
    def support(self) -> tuple[int, ...]:
        """Return the vertices with positive strength, ascending."""
        return tuple(v for v, x in enumerate(self.values) if x > 0)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a resolution check, with the lexicographically first
    unresolved pair when the check fails."""

    resolving: bool
    unresolved_pair: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.resolving


def _values_of(f) -> tuple[int, ...]:
    """Normalize a Broadcast or plain sequence to a value tuple."""
    if isinstance(f, Broadcast):
        return f.values
    return tuple(f)


def _check_broadcast(g: Graph, f) -> tuple[int, ...]:
    vals = _values_of(f)
    if len(vals) != g.n:
        raise ValueError(f"broadcast length {len(vals)} does not match order {g.n}")
    for v, x in enumerate(vals):
        if not isinstance(x, int) or x < 0:
            raise ValueError(f"broadcast value at vertex {v} must be a nonnegative int")
    if not any(vals):
        raise ValueError("broadcast has empty support")
    return vals


def broadcast_code(g: Graph, d: DistanceMatrix, f, v: int) -> tuple[int, ...]:
    """Return v's code: one truncated distance per support vertex, in
    ascending support order."""
    vals = _check_broadcast(g, f)
    return tuple(truncated_distance(d, z, v, x) for z, x in enumerate(vals) if x)


def _code_table(g: Graph, d: DistanceMatrix, vals: Sequence[int]) -> list[tuple[int, ...]]:
    return list(zip(*(truncated_row(d.dist[z], x, g.n) for z, x in enumerate(vals) if x)))


def _first_collision(codes: Sequence[tuple[int, ...]]) -> Optional[tuple[int, int]]:
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, c in enumerate(codes):
        groups.setdefault(c, []).append(v)
    clashes = [grp for grp in groups.values() if len(grp) > 1]
    if not clashes:
        return None
    return min((grp[0], grp[1]) for grp in clashes)


def is_resolving_broadcast(g: Graph, f, d: Optional[DistanceMatrix] = None) -> Verdict:
    """Decide whether the broadcast gives every vertex a distinct code."""
    vals = _check_broadcast(g, f)
    if d is None:
        d = all_pairs_distances(g)
    pair = _first_collision(_code_table(g, d, vals))
    return Verdict(pair is None, pair)


def _check_set(g: Graph, s) -> tuple[int, ...]:
    vs = sorted(set(s))
    if not vs:
        raise ValueError("landmark set is empty")
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"landmark {v} out of range")
    return tuple(vs)


def is_resolving_set(g: Graph, s, d: Optional[DistanceMatrix] = None) -> Verdict:
    """Decide whether the vertex set resolves g under full metric codes
    (unreachable entries keep the sentinel)."""
    vs = _check_set(g, s)
    if d is None:
        d = all_pairs_distances(g)
    codes = list(zip(*(d.dist[z] for z in vs)))
    pair = _first_collision(codes)
    return Verdict(pair is None, pair)


def is_adjacency_resolving_set(g: Graph, s, d: Optional[DistanceMatrix] = None) -> Verdict:
    """Decide whether the vertex set resolves g under 0/1/2 adjacency codes."""
    vs = _check_set(g, s)
    if d is None:
        d = all_pairs_distances(g)
    codes = list(zip(*(truncated_row(d.dist[z], 1, g.n) for z in vs)))
    pair = _first_collision(codes)
    return Verdict(pair is None, pair)


def counting_feasible(g: Graph, f) -> bool:
    """Check the necessary counting condition |supp| + prod(f(z)+1) >= n."""
    vals = _values_of(f)
    if len(vals) != g.n:
        raise ValueError(f"broadcast length {len(vals)} does not match order {g.n}")
    supp = [x for x in vals if x > 0]
    return len(supp) + prod(x + 1 for x in supp) >= g.n
