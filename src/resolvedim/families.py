"""Deterministic graph generators: named families, extremal
constructions, and seeded random graphs/trees.

Every builder fixes the vertex numbering it documents, so repeated calls
are bit-identical. `FAMILIES` is the one table keyed by family name: each
entry holds the parameter names, the builder and the order function.
`FamilySpec.arguments` checks a spec against it (plain ints or, for parts
and dims, int tuples; random_graph's p may be a float) and is the one
parameter checker behind `generate`, `order`, which gives the order of a
graph without building it, and the closed-form catalog of `formulas`.
The two-graph combinator `bits_construction` stays a direct function.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from math import prod
from typing import Callable

from .graphs import Graph, build_graph, cartesian_product, induced_subgraph, join
from .resolution import counting_floor


def path(n: int) -> Graph:
    """Return P_n with vertices 0..n-1 in path order."""
    if n < 1:
        raise ValueError("path needs n >= 1")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    """Return C_n with vertices 0..n-1 in ring order."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    """Return K_n."""
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty(n: int) -> Graph:
    """Return the edgeless graph on n vertices."""
    if n < 1:
        raise ValueError("empty graph needs n >= 1")
    return build_graph(n, [])


def star(x: int) -> Graph:
    """Return K_{1,x}: center 0, leaves 1..x."""
    if x < 1:
        raise ValueError("star needs at least one leaf")
    return build_graph(x + 1, [(0, i) for i in range(1, x + 1)])


def complete_multipartite(parts: tuple[int, ...]) -> Graph:
    """Return the complete multipartite graph; part i occupies the next
    parts[i] consecutive ids."""
    parts = (parts,) if isinstance(parts, int) else tuple(parts)
    if len(parts) < 2:
        raise ValueError("complete multipartite graph needs at least 2 parts")
    if any(p < 1 for p in parts):
        raise ValueError("every part must have at least one vertex")
    bounds = [0]
    for p in parts:
        bounds.append(bounds[-1] + p)
    n = bounds[-1]
    edges = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            edges += [
                (u, v)
                for u in range(bounds[i], bounds[i + 1])
                for v in range(bounds[j], bounds[j + 1])
            ]
    return build_graph(n, edges)


def wheel(n: int) -> Graph:
    """Return C_n joined with one hub; the hub gets the last id n."""
    return join(cycle(n), complete(1))


def fan(n: int) -> Graph:
    """Return P_n joined with one hub; the hub gets the last id n."""
    return join(path(n), complete(1))


def petersen() -> Graph:
    """Return the Petersen graph: outer ring 0..4, inner pentagram 5..9."""
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return build_graph(10, edges)


def grid(dims: tuple[int, ...]) -> Graph:
    """Return the Cartesian product of paths, row-major vertex order."""
    dims = (dims,) if isinstance(dims, int) else tuple(dims)
    if not dims:
        raise ValueError("grid needs at least one dimension")
    g = path(dims[0])
    for extent in dims[1:]:
        g = cartesian_product(g, path(extent))
    return g


def bits_construction(g1: Graph, g2: Graph) -> Graph:
    """Attach one vertex per binary string of length k = g1.n to g1.

    g1 keeps ids 0..k-1; the string vertex u_b gets id k + t where t reads
    b with its first digit as the most significant bit, and u_b is
    adjacent to the j-th vertex of g1 exactly when digit j of b is 1.
    g2 (order 2^k) is laid over the string vertices in that same order.
    """
    k = g1.n
    if g2.n != 2**k:
        raise ValueError(f"second graph must have order 2^{k} = {2**k}, got {g2.n}")
    edges = list(g1.edges())
    edges += [(u + k, v + k) for u, v in g2.edges()]
    for t in range(2**k):
        for j in range(k):
            if (t >> (k - 1 - j)) & 1:
                edges.append((k + t, j))
    return build_graph(k + 2**k, edges)


def logn_sharp(k: int) -> Graph:
    """Return the order k + 2^k graph whose dimensions all equal k."""
    if k < 1:
        raise ValueError("needs k >= 1")
    return bits_construction(complete(k), complete(2**k))


def logn_sharp_trimmed(n: int) -> Graph:
    """Return the order-n graph trimmed from the next sharp instance.

    Picks the least k with k + 2^k >= n and keeps only the lowest
    n - k string vertices (the highest-labelled ones are dropped first).
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    return induced_subgraph(logn_sharp(counting_floor(n, 2)), range(n))


def subgraph_gap(k: int) -> Graph:
    """Return the diameter-2 graph whose induced clique needs far more
    landmarks than the whole graph.

    Vertices 0..k(k+1)/2-1 form a clique, grouped into cells V_1..V_k
    with |V_i| = i laid out consecutively; selector u_i (id
    k(k+1)/2 + i - 1) is adjacent to all of V_i and to the i-th member
    of every later cell.
    """
    if k < 3:
        raise ValueError("needs k >= 3")
    base = k * (k + 1) // 2

    def w(i: int, j: int) -> int:
        # cell i holds ids (i-1)i/2 .. (i-1)i/2 + i - 1, j is 1-based
        return (i - 1) * i // 2 + (j - 1)

    edges = [(u, v) for u in range(base) for v in range(u + 1, base)]
    for i in range(1, k + 1):
        ui = base + i - 1
        edges += [(ui, w(i, j)) for j in range(1, i + 1)]
        edges += [(ui, w(j, i)) for j in range(i + 1, k + 1)]
    return build_graph(base + k, edges)


def vdel_gap(k: int) -> Graph:
    """Return k apex-joined triangles plus one extra vertex whose removal
    doubles the metric dimension.

    Apex is 0; triangle i holds 3i-2, 3i-1, 3i; the extra vertex 3k+1 is
    adjacent to the middle vertex 3i-1 of every triangle.
    """
    if k < 2:
        raise ValueError("needs k >= 2")
    edges = []
    extra = 3 * k + 1
    for i in range(1, k + 1):
        x, y, z = 3 * i - 2, 3 * i - 1, 3 * i
        edges += [(x, y), (y, z), (x, z), (0, x), (0, y), (0, z), (extra, y)]
    return build_graph(3 * k + 2, edges)


def edge_gap(a: int, b: int, c: int) -> Graph:
    """Return the three-star caterpillar with one extra leaf-to-leaf edge
    whose removal raises the adjacency dimension.

    Spine 0-1-2; a leaves on 0, then b leaves on 1, then c leaves on 2,
    ids consecutive; the removable edge joins the first leaf of 0 to the
    first leaf of 2.
    """
    if a < 3 or c < 3 or b < 2:
        raise ValueError("needs a >= 3, b >= 2, c >= 3")
    edges = [(0, 1), (1, 2)]
    edges += [(0, 3 + i) for i in range(a)]
    edges += [(1, 3 + a + i) for i in range(b)]
    edges += [(2, 3 + a + b + i) for i in range(c)]
    edges.append(edge_gap_special_edge(a, b, c))
    return build_graph(3 + a + b + c, edges)


def edge_gap_special_edge(a: int, b: int, c: int) -> tuple[int, int]:
    """Return the removable leaf-to-leaf edge of edge_gap(a, b, c)."""
    return (3, 3 + a + b)


def spider(x: int, s: int) -> Graph:
    """Return K_{1,x} with its first s legs subdivided once: center 0,
    then per leg either (middle, leaf) or just the leaf, consecutively."""
    if x < 3:
        raise ValueError("spider needs at least 3 legs")
    if not 0 <= s <= x:
        raise ValueError("subdivided-leg count must lie in [0, x]")
    edges = []
    nxt = 1
    for i in range(1, x + 1):
        if i <= s:
            mid, leaf = nxt, nxt + 1
            edges += [(0, mid), (mid, leaf)]
            nxt += 2
        else:
            edges.append((0, nxt))
            nxt += 1
    return build_graph(nxt, edges)


def kK2(k: int) -> Graph:
    """Return k disjoint edges (2i, 2i+1)."""
    if k < 1:
        raise ValueError("needs k >= 1")
    return build_graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def kK2_plus_isolated(k: int) -> Graph:
    """Return k disjoint edges plus the isolated vertex 2k."""
    if k < 1:
        raise ValueError("needs k >= 1")
    return build_graph(2 * k + 1, [(2 * i, 2 * i + 1) for i in range(k)])


def grid_plus_apex(k: int) -> Graph:
    """Return the k x k grid joined with one apex; the apex gets id k*k."""
    if k < 2:
        raise ValueError("needs k >= 2")
    return join(grid((k, k)), complete(1))


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Return a seeded binomial random graph; pairs are drawn in
    lexicographic order so the result is reproducible."""
    if n < 1:
        raise ValueError("needs n >= 1")
    if not 0 <= p <= 1:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def random_tree(n: int, seed: int) -> Graph:
    """Return a seeded uniform random labelled tree (decoded parent code)."""
    if n < 1:
        raise ValueError("needs n >= 1")
    if n <= 2:
        return path(n)
    rng = random.Random(seed)
    code = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in code:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in code:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return build_graph(n, edges)


def sample_Hk(k: int, seed: int) -> Graph:
    """Sample one member of the adjacency-dimension-at-most-k universe:
    a random bits construction over a random base order j <= k, keeping
    each string vertex independently."""
    if k < 1:
        raise ValueError("needs k >= 1")
    rng = random.Random(seed)
    j = rng.randint(1, k)
    g1 = _random_graph_from(rng, j)
    g2 = _random_graph_from(rng, 2**j)
    b = bits_construction(g1, g2)
    keep = list(range(j)) + [j + t for t in range(2**j) if rng.random() < 0.5]
    return induced_subgraph(b, keep)


def _random_graph_from(rng: random.Random, n: int) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    return build_graph(n, edges)


def _bits_order(k: int, *_) -> int:
    """k + 2**k, the order of the bits construction over k >= 0 base
    vertices; past k = 64 it reads k + 2**64, beyond any graph that can be
    built."""
    return k + (1 << min(max(k, 0), 64))


# family -> (parameter names in builder order, builder, order): the order
# function takes the builder's parameters and returns the order of the
# graph the builder would build from them, without building it.
FAMILIES: dict[str, tuple[tuple[str, ...], Callable[..., Graph], Callable[..., int]]] = {
    "path": (("n",), path, lambda n: n),
    "cycle": (("n",), cycle, lambda n: n),
    "complete": (("n",), complete, lambda n: n),
    "empty": (("n",), empty, lambda n: n),
    "star": (("x",), star, lambda x: x + 1),
    "complete_multipartite": (
        ("parts",),
        complete_multipartite,
        lambda parts: sum(parts) if isinstance(parts, tuple) else parts,
    ),
    "wheel": (("n",), wheel, lambda n: n + 1),
    "fan": (("n",), fan, lambda n: n + 1),
    "petersen": ((), petersen, lambda: 10),
    "grid": (("dims",), grid, lambda dims: prod(dims) if isinstance(dims, tuple) else dims),
    "logn_sharp": (("k",), logn_sharp, _bits_order),
    "logn_sharp_trimmed": (("n",), logn_sharp_trimmed, lambda n: n),
    "subgraph_gap": (("k",), subgraph_gap, lambda k: k * (k + 1) // 2 + k),
    "vdel_gap": (("k",), vdel_gap, lambda k: 3 * k + 2),
    "edge_gap": (("a", "b", "c"), edge_gap, lambda a, b, c: 3 + a + b + c),
    "spider": (("x", "s"), spider, lambda x, s: 1 + x + s),
    "kK2": (("k",), kK2, lambda k: 2 * k),
    "kK2_plus_isolated": (("k",), kK2_plus_isolated, lambda k: 2 * k + 1),
    "grid_plus_apex": (("k",), grid_plus_apex, lambda k: k * k + 1),
    "random_graph": (("n", "p", "seed"), random_graph, lambda n, p, seed: n),
    "random_tree": (("n", "seed"), random_tree, lambda n, seed: n),
    "sample_Hk": (("k", "seed"), sample_Hk, _bits_order),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family id plus its scalar/tuple parameters."""

    family: str
    params: dict = field(default_factory=dict)

    def arguments(self) -> list:
        """Check the spec against its FAMILIES entry and return the
        parameters in the builder's order. Every parameter must be an int
        (a bool is not taken for one), parts and dims may be tuples of
        ints, and random_graph's p may be a float."""
        if self.family not in FAMILIES:
            raise KeyError(f"unknown family {self.family!r}")
        names = FAMILIES[self.family][0]
        params = dict(self.params)
        extra = set(params) - set(names)
        if extra:
            raise ValueError(f"unexpected parameters for {self.family}: {sorted(extra)}")
        missing = [name for name in names if name not in params]
        if missing:
            raise ValueError(f"missing parameters for {self.family}: {missing}")
        for name in names:
            value = params[name]
            if self.family == "random_graph" and name == "p" and isinstance(value, float):
                continue
            items = value if name in ("parts", "dims") and isinstance(value, tuple) else (value,)
            if not all(isinstance(x, int) and not isinstance(x, bool) for x in items):
                raise ValueError(f"parameter {name} of {self.family} takes integers, got {value!r}")
        return [params[name] for name in names]


def order(spec: FamilySpec) -> int:
    """The order of the graph `generate(spec)` would build, found without
    building it; for sample_Hk, which keeps a random share of its string
    vertices, the largest order it can have. Parameters are checked as
    `generate` checks them, but not the builder's own range checks."""
    return FAMILIES[spec.family][2](*spec.arguments())


def generate(spec: FamilySpec) -> Graph:
    """Build the graph a FamilySpec describes (see `FamilySpec.arguments`
    for the parameters it takes)."""
    return FAMILIES[spec.family][1](*spec.arguments())
