"""Resolving codes and the predicates deciding whether a set or a
broadcast tells every pair of vertices apart.

A broadcast assigns each vertex a nonnegative strength f(v); a vertex z
with f(z) = i contributes the entry min(d(v, z), i + 1) to every code,
with unreachable pairs pinned at i + 1. A landmark set is a broadcast
of one uniform strength, and every code is built in one place,
`_code_table`: metric codes put each landmark at strength n - 1
(truncating at n leaves a row, sentinel included, as it is) and
adjacency codes at strength 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Optional

from .graphs import DistanceMatrix, Graph, all_pairs_distances, truncated_row


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


def _code_table(
    g: Graph, d: Optional[DistanceMatrix], support: Iterable[tuple[int, int]]
) -> list[tuple[int, ...]]:
    """Return every vertex's code under the (landmark, strength) pairs:
    one entry per pair, the landmark's row truncated at its strength + 1."""
    if d is None:
        d = all_pairs_distances(g)
    return list(zip(*(truncated_row(d.dist[z], x, g.n) for z, x in support)))


def broadcast_codes(g: Graph, d: Optional[DistanceMatrix], f) -> list[tuple[int, ...]]:
    """Return the code of every vertex, in vertex order, checking the
    broadcast once; each code has one truncated distance per support
    vertex, in ascending support order."""
    vals = _check_broadcast(g, f)
    return _code_table(g, d, ((z, x) for z, x in enumerate(vals) if x))


def broadcast_code(g: Graph, d: DistanceMatrix, f, v: int) -> tuple[int, ...]:
    """Return v's code: one truncated distance per support vertex, in
    ascending support order."""
    if not 0 <= v < g.n:
        raise IndexError(f"vertex {v} out of range")
    return broadcast_codes(g, d, f)[v]


def _first_collision(codes: Iterable[tuple[int, ...]]) -> Optional[tuple[int, int]]:
    """Return the lex-first pair of vertices with equal codes, or None.

    Scanning upwards, the first repeat of a code pairs it with its first
    holder, and a later pair replaces it only with a smaller first holder.
    """
    first: dict[tuple[int, ...], int] = {}
    pair = None
    for v, c in enumerate(codes):
        u = first.setdefault(c, v)
        if u < v and (pair is None or u < pair[0]):
            pair = (u, v)
    return pair


def _verdict(g: Graph, d: Optional[DistanceMatrix], support: Iterable[tuple[int, int]]) -> Verdict:
    """Decide whether the (landmark, strength) pairs give every vertex a
    distinct code, each landmark contributing its row truncated at its
    strength + 1."""
    pair = _first_collision(_code_table(g, d, support))
    return Verdict(pair is None, pair)


def is_resolving_broadcast(g: Graph, f, d: Optional[DistanceMatrix] = None) -> Verdict:
    """Decide whether the broadcast gives every vertex a distinct code."""
    vals = _check_broadcast(g, f)
    return _verdict(g, d, ((z, x) for z, x in enumerate(vals) if x))


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
    (unreachable entries keep the sentinel): every landmark at strength
    n - 1, whose truncation at n leaves a row as it is."""
    strength = max(1, g.n - 1)
    return _verdict(g, d, ((z, strength) for z in _check_set(g, s)))


def is_adjacency_resolving_set(g: Graph, s, d: Optional[DistanceMatrix] = None) -> Verdict:
    """Decide whether the vertex set resolves g under 0/1/2 adjacency codes:
    every landmark at strength 1."""
    return _verdict(g, d, ((z, 1) for z in _check_set(g, s)))


def counting_feasible(g: Graph, f) -> bool:
    """Check the necessary counting condition |supp| + prod(f(z)+1) >= n."""
    vals = _values_of(f)
    if len(vals) != g.n:
        raise ValueError(f"broadcast length {len(vals)} does not match order {g.n}")
    supp = [x for x in vals if x > 0]
    return len(supp) + prod(x + 1 for x in supp) >= g.n


def counting_floor(n: int, b: int) -> int:
    """Return the least k >= 1 with k + b**k >= n.

    With b = 2 it is the least cost of a broadcast that meets the counting
    condition: a split of cost s over y support vertices has y <= s and,
    as f + 1 <= 2**f, prod(f + 1) <= 2**s, and s vertices at strength 1
    reach s + 2**s. With b the diameter it is the landmark floor
    n <= D**k + k of Khuller, Raghavachari and Rosenfeld (1996).
    """
    k = 1
    while k + b**k < n:
        k += 1
    return k
