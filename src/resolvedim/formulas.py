"""Closed-form catalog, small-value characterizations, general bound
checks, and structural certificates.

The catalog answers only queries inside each formula's proved range;
everything else comes back applicable=False rather than extrapolated.
It holds one formula per family and no parameter names: a query's
parameters are checked against the family's entry of
`families.FAMILIES` by the checker `generate` uses, and reach the
formula positionally, in builder order; each formula checks its own
range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .families import FamilySpec
from .graphs import DistanceMatrix, Graph, all_pairs_distances, delta_prime, tree_profile
from .resolution import Broadcast, counting_floor, is_adjacency_resolving_set


@dataclass(frozen=True)
class FormulaQuery:
    """A (parameter kind, family, parameters) lookup request."""

    kind: str
    family: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FormulaResult:
    """Catalog answer; value is set exactly when applicable."""

    applicable: bool
    value: Optional[int] = None
    detail: str = ""


KINDS = ("dim", "adim", "bdim")


def _ok(value: int, detail: str = "") -> FormulaResult:
    return FormulaResult(True, value, detail)


def _na(detail: str) -> FormulaResult:
    return FormulaResult(False, None, detail)


def _two_fifths(n: int) -> int:
    return (2 * n + 2) // 5


def _path_formula(kind: str, n: int) -> FormulaResult:
    if n < 1:
        raise ValueError("path needs n >= 1")
    if kind == "dim":
        return _ok(1)
    return _ok(1 if n <= 3 else _two_fifths(n))


def _cycle_formula(kind: str, n: int) -> FormulaResult:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    if n == 3:
        return _ok(2, "triangle is complete")
    if kind == "dim":
        return _na("no cataloged closed form for dim of cycles")
    return _ok(_two_fifths(n))


def _complete_formula(kind: str, n: int) -> FormulaResult:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return _ok(1 if n == 1 else n - 1)


def _wheel_formula(kind: str, n: int) -> FormulaResult:
    if n < 3:
        raise ValueError("wheel needs a rim of length n >= 3")
    return _ok(3 if n in (3, 6) else _two_fifths(n))


def _fan_formula(kind: str, n: int) -> FormulaResult:
    if n < 1:
        raise ValueError("fan needs n >= 1")
    if n == 1:
        return _ok(1)
    if n in (2, 3):
        return _ok(2)
    return _ok(3 if n == 6 else _two_fifths(n))


def _kpartite_formula(kind: str, parts) -> FormulaResult:
    parts = (parts,) if isinstance(parts, int) else tuple(parts)
    if len(parts) < 2:
        raise ValueError("complete multipartite graph needs at least 2 parts")
    if any(p < 1 for p in parts):
        raise ValueError("every part must have at least one vertex")
    n = sum(parts)
    k = len(parts)
    s = sum(1 for p in parts if p == 1)
    return _ok(n - k if s == 0 else n + s - k - 1)


def _petersen_formula(kind: str) -> FormulaResult:
    return _ok(3)


def _spider_formula(kind: str, x: int, s: int) -> FormulaResult:
    if x < 3:
        raise ValueError("spider needs at least 3 legs")
    if not 0 <= s <= x:
        raise ValueError("subdivided-leg count must lie in [0, x]")
    if kind == "dim":
        return _ok(x - 1)
    if s <= x - 1:
        return _ok(x - 1)
    return _na("no cataloged value when every leg is subdivided")


_CATALOG = {
    "path": _path_formula,
    "cycle": _cycle_formula,
    "complete": _complete_formula,
    "empty": _complete_formula,
    "wheel": _wheel_formula,
    "fan": _fan_formula,
    "complete_multipartite": _kpartite_formula,
    "petersen": _petersen_formula,
    "spider": _spider_formula,
}


def catalog_families() -> tuple[str, ...]:
    """Families the catalog can answer for, sorted."""
    return tuple(sorted(_CATALOG))


def closed_form(query: FormulaQuery) -> FormulaResult:
    """Answer a catalog query, or applicable=False outside proved ranges.
    The parameters are checked as `families.generate` checks them."""
    if query.kind not in KINDS:
        raise ValueError(f"unknown parameter kind {query.kind!r}")
    fn = _CATALOG.get(query.family)
    if fn is None:
        raise ValueError(f"unknown family {query.family!r}")
    return fn(query.kind, *FamilySpec(query.family, query.params).arguments())


def tree_dim(g: Graph, d: Optional[DistanceMatrix] = None) -> int:
    """Return the metric dimension of a tree: 1 for paths, otherwise the
    number of leaves minus the number of exterior major vertices. The tree
    profile comes from the distance matrix `d` if given."""
    prof = tree_profile(g) if d is None else d.tree
    if not prof.is_tree:
        raise ValueError("graph is not a tree")
    if g.n == 1:
        return 1
    if not prof.major_vertices:
        return 1
    return prof.sigma - prof.ex


@dataclass(frozen=True)
class CharacterizationRecord:
    """One biconditional: computed value condition vs structural membership."""

    id: str
    applicable: bool
    value_matches: bool
    member: bool

    @property
    def consistent(self) -> bool:
        return (not self.applicable) or self.value_matches == self.member


def _in_tiny_family(g: Graph) -> bool:
    """Membership in {P1, P2, P3, co-P2, co-P3}: every graph of order
    at most 2, plus the order-3 graphs with exactly 1 or 2 edges."""
    if g.n <= 2:
        return g.n >= 1
    if g.n == 3:
        return g.m in (1, 2)
    return False


def _complete_or_empty(g: Graph) -> bool:
    return g.m == 0 or g.m == g.n * (g.n - 1) // 2


def characterize_small(g: Graph, adim: int, bdim: int) -> tuple[CharacterizationRecord, ...]:
    """Cross-check the small/extreme-value characterizations against the
    computed parameters. The value-(n-1) records apply for order >= 2 only
    (order 1 takes value 1 by convention while n - 1 = 0)."""
    n = g.n
    big = n >= 2
    return (
        CharacterizationRecord("bdim-1", True, bdim == 1, _in_tiny_family(g)),
        CharacterizationRecord("bdim-2", True, bdim == 2, adim == 2),
        CharacterizationRecord("bdim-max", big, bdim == n - 1, _complete_or_empty(g)),
        CharacterizationRecord("adim-max", big, adim == n - 1, _complete_or_empty(g)),
    )


@dataclass(frozen=True)
class BoundRecord:
    """One inequality check: lhs <= rhs when applicable."""

    id: str
    applicable: bool
    lhs: Optional[int] = None
    rhs: Optional[int] = None
    note: str = ""

    @property
    def holds(self) -> Optional[bool]:
        if not self.applicable:
            return None
        return self.lhs <= self.rhs


def _capacity(d: int, k: int) -> int:
    width = (2 * d // 3) + 1
    tail = sum((2 * i - 1) ** (k - 1) for i in range(1, -(-d // 3) + 1))
    return width**k + k * tail


def bound_report(
    g: Graph,
    dim: Optional[int] = None,
    adim: Optional[int] = None,
    bdim: Optional[int] = None,
    d: Optional[DistanceMatrix] = None,
) -> tuple[BoundRecord, ...]:
    """Evaluate every general bound the computed parameters allow.

    Records whose inputs are missing, or whose hypotheses the graph does
    not meet (connectivity, diameter at least 2 for the dim*(d-1) upper
    bound), come back applicable=False with a note.
    """
    if d is None:
        d = all_pairs_distances(g)
    prof = d.profile
    n = g.n
    diam = prof.finite_diameter
    connected = prof.connected and n >= 2
    dp = delta_prime(g, d)
    records = []

    def gated(rid: str, have, conn: bool, lhs, rhs, note: str = "") -> None:
        if any(x is None for x in have):
            records.append(BoundRecord(rid, False, note="parameter not computed"))
        elif conn and not connected:
            records.append(BoundRecord(rid, False, note="needs a connected graph of order >= 2"))
        else:
            records.append(BoundRecord(rid, True, lhs(), rhs(), note))

    gated("landmark-floor", (dim,), True, lambda: counting_floor(n, diam), lambda: dim)
    gated("diameter-ceiling", (dim,), True, lambda: dim, lambda: n - diam)
    gated("capacity-dim", (dim,), True, lambda: n, lambda: _capacity(diam, dim))
    gated("capacity-adim", (adim,), True, lambda: n, lambda: _capacity(diam, adim))
    gated("capacity-bdim", (bdim,), True, lambda: n, lambda: _capacity(diam, bdim))
    gated("order-cap-dim", (dim,), True, lambda: n, lambda: (diam + 1) ** dim)
    gated("order-cap-bdim", (bdim,), True, lambda: n, lambda: (diam + 1) ** bdim)
    gated("sandwich-lower", (bdim,), True, lambda: -(-diam // 3), lambda: bdim)
    if bdim is None or dim is None:
        records.append(BoundRecord("sandwich-upper", False, note="parameter not computed"))
    elif not connected:
        records.append(BoundRecord("sandwich-upper", False, note="needs a connected graph of order >= 2"))
    elif diam < 2:
        records.append(BoundRecord("sandwich-upper", False, note="diameter below 2: upper bound does not apply"))
    else:
        records.append(BoundRecord("sandwich-upper", True, bdim, dim * (diam - 1)))
    gated("max-order-adim", (adim,), False, lambda: n, lambda: adim + 2**adim)
    gated("max-order-bdim", (bdim,), False, lambda: n, lambda: bdim + 2**bdim)
    gated("deltaprime-ratio", (adim, bdim), False, lambda: adim, lambda: (dp + 1) * bdim)
    if bdim is None or adim is None:
        records.append(BoundRecord("deltaprime-order", False, note="parameter not computed"))
    else:
        a = (dp + 1) * bdim
        records.append(
            BoundRecord("deltaprime-order", True, n, a + 2**a, "informational concrete form")
        )
    return tuple(records)


def adim_labeling_certificate(g: Graph, x: Iterable[int]) -> dict[int, str]:
    """Return the binary adjacency label of every vertex outside x, digit
    i telling adjacency to the i-th smallest member of x."""
    xs = tuple(sorted(set(x)))
    verdict = is_adjacency_resolving_set(g, xs)
    if not verdict:
        raise ValueError(
            f"set is not adjacency resolving (pair {verdict.unresolved_pair})"
        )
    labels = {}
    for v in range(g.n):
        if v in xs:
            continue
        labels[v] = "".join("1" if g.has_edge(v, z) else "0" for z in xs)
    if len(set(labels.values())) != len(labels):
        raise AssertionError("distinct labels contradict the resolving precondition")
    return labels


def verify_zhang_structure(t: Graph, w: Iterable[int], d: Optional[DistanceMatrix] = None) -> bool:
    """Check the structure of a minimum resolving set of a tree: one
    vertex on every leg of every exterior major vertex except exactly one
    empty leg each, and nothing anywhere else. The tree profile comes from
    the distance matrix `d` if given."""
    prof = tree_profile(t) if d is None else d.tree
    if not prof.is_tree:
        raise ValueError("graph is not a tree")
    if prof.ex == 0:
        raise ValueError("tree has no exterior major vertex")
    ws = set(w)
    for v in ws:
        if not 0 <= v < t.n:
            raise ValueError(f"vertex {v} out of range")
    covered: set[int] = set()
    for major in prof.exterior:
        empty_legs = 0
        for leg in major.legs:
            covered.update(leg)
            hits = len(ws & set(leg))
            if hits > 1:
                return False
            if hits == 0:
                empty_legs += 1
        if empty_legs != 1:
            return False
    return ws <= covered


@dataclass(frozen=True)
class SpiderBdim:
    """Closed-form broadcast dimension of a qualifying subdivided star."""

    applicable: bool
    value: Optional[int] = None
    witness: Optional[Broadcast] = None
    detail: str = ""


def spider_bdim(t: Graph, d: Optional[DistanceMatrix] = None) -> SpiderBdim:
    """Return x - 1 with its witness for a star on x >= 3 legs with at
    most x - 1 legs subdivided once, or 1 for the two shortest paths.

    The witness puts strength 1 on every neighbour of the center except
    the lowest-numbered adjacent leaf (paths: on the lowest end vertex).
    The tree profile comes from the distance matrix `d` if given.
    """
    prof = tree_profile(t) if d is None else d.tree
    if not prof.is_tree:
        raise ValueError("graph is not a tree")
    n = t.n
    if not prof.major_vertices and n in (2, 3):
        vals = [0] * n
        vals[prof.end_vertices[0]] = 1
        return SpiderBdim(True, 1, Broadcast(tuple(vals)))
    if prof.spider is None:
        return SpiderBdim(False, detail="not a single-center tree")
    lengths = prof.spider.leg_lengths
    if any(length > 2 for length in lengths):
        return SpiderBdim(False, detail="a leg is longer than a single subdivision")
    if 1 not in lengths:
        return SpiderBdim(False, detail="every leg is subdivided")
    center = prof.spider.center
    x = len(lengths)
    adjacent_leaves = [u for u in t.adjacency[center] if t.degree(u) == 1]
    skip = min(adjacent_leaves)
    vals = [0] * n
    for u in t.adjacency[center]:
        if u != skip:
            vals[u] = 1
    return SpiderBdim(True, x - 1, Broadcast(tuple(vals)))
