"""Simple-graph core: construction, distances, twins, profiles, composition.

Vertices are dense 0-based integers. Distances between vertices in
different components are stored as the sentinel value n (one past the
largest possible finite distance), so every row is a plain int tuple and
finite distances always compare below the sentinel.

A `DistanceMatrix` is the per-graph bundle: it keeps the graph it was
built from and computes the graph's twins (`twin_partition`), metric
profile (`metric_profile`) and tree profile on first use, once each,
and each of its rows truncated at k + 1 once per k: a whole table
(`truncated`) or one row (`cut_row`). Pass it wherever a function takes
`d`, and every caller shares them: the solvers, `resolution`'s code
tables and `revalidate` all read their truncated rows from it, and
`truncated_row` is the one rule that makes them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, repeat
from operator import is_
from typing import Optional, Sequence


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with sorted adjacency rows."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.adjacency))

    def __hash__(self) -> int:
        # Graphs key the memo dicts of whole batteries: hash the adjacency
        # once, outside the fields, so equality, repr and fields() stay
        # those of the dataclass.
        return self._hash

    @property
    def m(self) -> int:
        """Return the number of edges."""
        return sum(len(row) for row in self.adjacency) // 2

    def degree(self, v: int) -> int:
        """Return the degree of v."""
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Return True if uv is an edge."""
        return v in self.adjacency[u]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) with u < v, in sorted order."""
        return tuple(
            (u, v) for u in range(self.n) for v in self.adjacency[u] if u < v
        )


def build_graph(n: int, edges: Sequence[tuple[int, int]]) -> Graph:
    """Build a validated Graph from an order and an edge sequence.

    Duplicate edges (in either orientation) collapse silently. Self-loops
    and out-of-range endpoints raise ValueError naming the offending
    edge index.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    rows: list[set[int]] = [set() for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {idx}: endpoint out of range for order {n}: ({u}, {v})")
        if u == v:
            raise ValueError(f"edge {idx}: self-loop at vertex {u}")
        rows[u].add(v)
        rows[v].add(u)
    return Graph(n, tuple(tuple(sorted(row)) for row in rows))


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs shortest-path distances of `graph`; entry n marks an
    unreachable pair. The graph's twins, metric profile and tree profile
    are computed on first use and kept, and so is each row truncated at
    k + 1 (`truncated`, `cut_row`)."""

    dist: tuple[tuple[int, ...], ...]
    graph: Graph = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        # The tables of `truncated` and `cut_row`, by k: kept beside the
        # fields, as cached_property keeps its values, but made with the
        # bundle, so a tiny solve's first read makes no descriptor call
        # (which takes a lock before Python 3.12). A table is a tuple once
        # every row is made, and a list with None for rows not yet made.
        object.__setattr__(self, "_tables", {})

    def truncated(self, k: int) -> tuple[tuple[int, ...], ...]:
        """Every row truncated at k + 1, row z equal to
        `truncated_row(dist[z], k, n)`: made on the first call for k, from
        the rows `cut_row` made before it, and kept. A table whose rows
        are all the distance rows themselves is `dist`, so k + 1 = n costs
        no copy."""
        table = self._tables.get(k)
        if type(table) is not tuple:
            dist = self.dist
            table = _cut(table or repeat(None), dist, k, len(dist))
            if all(map(is_, table, dist)):
                table = dist
            self._tables[k] = table
        return table

    def cut_row(self, z: int, k: int) -> tuple[int, ...]:
        """Row z of `truncated(k)`, made alone on first use, so a check
        that reads a few rows at many strengths makes no whole table."""
        table = self._tables.get(k)
        if table is None:
            table = self._tables[k] = [None] * len(self.dist)
        row = table[z]
        if row is None:
            row = table[z] = _cut((None,), (self.dist[z],), k, len(table))[0]
        return row

    @cached_property
    def twins(self) -> TwinPartition:
        """The graph's twin pairs and twin groups."""
        return twin_partition(self.graph)

    @cached_property
    def profile(self) -> MetricProfile:
        """The graph's eccentricities, diameter and connectivity."""
        return metric_profile(self.graph, self)

    @cached_property
    def tree(self) -> TreeProfile:
        """Leaves, major vertices, exterior majors with their legs, and the
        spider descriptor (present iff exactly one major vertex exists);
        is_tree=False unless the graph is a tree."""
        g = self.graph
        n = g.n
        if g.m != n - 1 or not self.profile.connected:
            return TreeProfile(is_tree=False)
        dist = self.dist
        leaves = tuple(v for v in range(n) if g.degree(v) == 1)
        majors = tuple(v for v in range(n) if g.degree(v) >= 3)
        exterior = []
        for v in majors:
            terms = []
            for leaf in leaves:
                if all(dist[leaf][v] < dist[leaf][w] for w in majors if w != v):
                    terms.append(leaf)
            if not terms:
                continue
            legs = []
            for leaf in terms:
                # walk the unique tree path leaf -> v, then reverse it
                path = [leaf]
                cur = leaf
                while cur != v:
                    cur = min(g.adjacency[cur], key=lambda u: dist[u][v])
                    path.append(cur)
                path.reverse()
                legs.append(tuple(path[1:]))
            exterior.append(ExteriorMajor(v, tuple(legs)))
        spider = None
        if len(majors) == 1:
            c = majors[0]
            lengths = tuple(sorted((dist[c][leaf] for leaf in leaves), reverse=True))
            spider = SpiderShape(c, lengths)
        return TreeProfile(
            is_tree=True,
            end_vertices=leaves,
            major_vertices=majors,
            exterior=tuple(exterior),
            sigma=len(leaves),
            ex=len(exterior),
            spider=spider,
        )


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Compute BFS distances from every vertex, sentinel n for unreachable,
    as the bundle of g."""
    n = g.n
    rows = []
    for s in range(n):
        row = [n] * n
        row[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            du = row[u]
            for w in g.adjacency[u]:
                if row[w] == n:
                    row[w] = du + 1
                    q.append(w)
        rows.append(tuple(row))
    return DistanceMatrix(tuple(rows), g)


def truncated_row(drow: Sequence[int], k: int, n: int) -> tuple[int, ...]:
    """Truncate one distance row at k + 1, the sentinel n included: entry x
    becomes k + 1 if x >= n, else min(x, k + 1)."""
    cut = k + 1
    if cut <= n:
        return tuple(map(min, drow, repeat(cut)))
    return tuple(cut if x >= n else x for x in drow)


def _cut(made, drows, k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Each distance row of `drows` truncated at k + 1 (`truncated_row`),
    or the row itself when the cut leaves it as it is; where `made`
    already holds the truncated row, that one. Up to n the cut moves only
    entries above k + 1; past n it moves the sentinel n up to k + 1, so a
    row that holds the sentinel changes even though no entry exceeds the
    cut."""
    top = k + 1 if k < n else n - 1
    return tuple(
        row or (drow if max(drow) <= top else truncated_row(drow, k, n))
        for row, drow in zip(made, drows)
    )


@dataclass(frozen=True)
class TwinPartition:
    """All twin pairs plus a greedy partition into pairwise-twin groups."""

    pairs: tuple[tuple[int, int], ...]
    groups: tuple[tuple[int, ...], ...]

    def forced_minimum(self) -> int:
        """Return sum of (|group| - 1): a lower bound on any resolving support."""
        return sum(map(len, self.groups)) - len(self.groups)


def twin_partition(g: Graph) -> TwinPartition:
    """List every twin pair and group the vertices into twin classes.

    u and w are twins iff N(u) - {w} = N(w) - {u}: iff N(u) = N(w) (then
    they are not adjacent) or N[u] = N[w] (then they are). Twinness is an
    equivalence relation, and no open neighbourhood equals a closed one
    (N(u) = N[w] would put w in N(u), so u in N(w) and then in N(u)). So
    one dict keyed by both neighbourhood bitmasks of every vertex collects
    each class in one bucket. Groups ascend by their least vertex, and
    singleton groups are kept so the groups form a partition.
    """
    nbr = [sum(map((1).__lshift__, row)) for row in g.adjacency]
    buckets: dict[int, list[int]] = {}
    for u, mask in enumerate(nbr):
        buckets.setdefault(mask, []).append(u)
        buckets.setdefault(mask | 1 << u, []).append(u)
    groups = []
    for u, mask in enumerate(nbr):
        grp = buckets[mask]
        if len(grp) == 1:
            grp = buckets[mask | 1 << u]
        if grp[0] == u:
            groups.append(tuple(grp))
    pairs = sorted(pair for grp in groups if len(grp) > 1 for pair in combinations(grp, 2))
    return TwinPartition(tuple(pairs), tuple(groups))


@dataclass(frozen=True)
class MetricProfile:
    """Eccentricities, diameter, and connectivity of a graph.

    `diameter` is the sentinel n, the graph's order, when g is
    disconnected; the `finite_*` fields ignore unreachable pairs.
    """

    finite_eccentricities: tuple[int, ...]
    diameter: int
    finite_diameter: int
    connected: bool


def metric_profile(g: Graph, d: Optional[DistanceMatrix] = None) -> MetricProfile:
    """Summarize distances: finite eccentricities, diameter, connectivity."""
    if d is None:
        d = all_pairs_distances(g)
    n = g.n
    # g is connected iff vertex 0 reaches every vertex (n = 0 counts).
    connected = n == 0 or max(d.dist[0]) < n
    if connected:
        # No row holds the sentinel, so each row's largest entry is finite.
        eccs = tuple(map(max, d.dist))
    else:
        eccs = tuple(max((x for x in row if x < n), default=0) for row in d.dist)
    finite_diameter = max(eccs, default=0)
    return MetricProfile(
        finite_eccentricities=eccs,
        diameter=finite_diameter if connected else n,
        finite_diameter=finite_diameter,
        connected=connected,
    )


def delta_prime(g: Graph, d: Optional[DistanceMatrix] = None) -> int:
    """Return the largest number of vertices at one common finite distance
    j >= 1 from one vertex (0 when no finite positive distances exist)."""
    if d is None:
        d = all_pairs_distances(g)
    # Entry 0 is the vertex itself and entry n the unreachable sentinel.
    skip = {0, g.n}
    return max((row.count(j) for row in d.dist for j in set(row) - skip), default=0)


@dataclass(frozen=True)
class SpiderShape:
    """One center of degree >= 3 whose legs are induced paths to the leaves."""

    center: int
    leg_lengths: tuple[int, ...]


@dataclass(frozen=True)
class ExteriorMajor:
    """A major vertex with the legs reaching its terminal leaves.

    Each leg excludes the major vertex itself and ends at its terminal
    leaf.
    """

    vertex: int
    legs: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TreeProfile:
    """Leaf/major-vertex structure of a tree (is_tree=False otherwise)."""

    is_tree: bool
    end_vertices: tuple[int, ...] = ()
    major_vertices: tuple[int, ...] = ()
    exterior: tuple[ExteriorMajor, ...] = ()
    sigma: int = 0
    ex: int = 0
    spider: Optional[SpiderShape] = None


def tree_profile(g: Graph) -> TreeProfile:
    """Return g's tree profile (`DistanceMatrix.tree`); a graph without
    exactly n - 1 edges is refused before any BFS."""
    if g.m != g.n - 1:
        return TreeProfile(is_tree=False)
    return all_pairs_distances(g).tree


def complement(g: Graph) -> Graph:
    """Return the complement graph on the same vertex set."""
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]
    return build_graph(g.n, edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Return g + h side by side; h's vertices shift up by g.n."""
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    return build_graph(g.n + h.n, edges)


def join(g: Graph, h: Graph) -> Graph:
    """Return the join: disjoint union plus all edges between the parts."""
    edges = list(g.edges()) + [(u + g.n, v + g.n) for u, v in h.edges()]
    edges += [(u, v + g.n) for u in range(g.n) for v in range(h.n)]
    return build_graph(g.n + h.n, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Return the Cartesian product; vertex (u, v) gets id u * h.n + v."""
    edges = []
    for u in range(g.n):
        for v in range(h.n):
            a = u * h.n + v
            for w in h.adjacency[v]:
                if w > v:
                    edges.append((a, u * h.n + w))
            for x in g.adjacency[u]:
                if x > u:
                    edges.append((a, x * h.n + v))
    return build_graph(g.n * h.n, edges)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Return the induced subgraph on `vertices`, renumbered densely in
    ascending order of the original ids."""
    keep = sorted(vertices)
    if not keep:
        raise ValueError("vertex selection is empty")
    if len(set(keep)) != len(keep):
        raise ValueError("vertex selection has duplicates")
    for v in keep:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    new_id = {v: i for i, v in enumerate(keep)}
    edges = [
        (new_id[u], new_id[v]) for u, v in g.edges() if u in new_id and v in new_id
    ]
    return build_graph(len(keep), edges)


def clique_number(g: Graph) -> int:
    """Return the exact clique number (branch and bound, small orders)."""
    adj = [set(row) for row in g.adjacency]
    best = 0

    def extend(size: int, cands: list[int]) -> None:
        nonlocal best
        if size > best:
            best = size
        while cands:
            if size + len(cands) <= best:
                return
            v = cands.pop()
            extend(size + 1, [u for u in cands if u in adj[v]])

    extend(0, list(range(g.n)))
    return best
