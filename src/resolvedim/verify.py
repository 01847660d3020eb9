"""Theorem battery: re-checks every library invariant on exhaustive
small orders, seeded samples, and the sharp constructions.

Each suite yields one check per instance; a failing check carries the
graph literal so the case can be replayed. Most suites are a check of
one graph, which `each` runs over one of the context's instance
sources. The minimum-broadcast enumerator is cross-checked against
`naive_min_broadcasts`, a definition-direct second route that shares no
code with the solver (its own BFS, its own vector scan, its own code
comparison). The enumerator is bdim's search, while the naive route has
no caps and starts at cost 1, so the cross-check also tests bdim's
strength caps and starting lower bound.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Union

from . import families, formulas
from .graphs import (
    DistanceMatrix,
    Graph,
    all_pairs_distances,
    build_graph,
    clique_number,
    complement,
    delta_prime,
    truncated_row,
)
from .resolution import broadcast_codes, counting_feasible, counting_floor, is_resolving_broadcast
from .solvers import (
    broadcast_value_caps,
    delete_edge,
    delete_vertex,
    enumerate_min_broadcasts,
    flatten_path_cycle_broadcast,
    solve_adim,
    solve_bdim,
    solve_dim,
    solve_dim_k,
)


@dataclass
class Check:
    """One verified instance; failing checks carry a replayable detail.

    `label` names the instance, or is the graph checked, whose replayable
    literal `instance` spells out only when read: the battery reports
    failing checks alone.
    """

    label: Union[str, Graph]
    passed: bool
    detail: str = ""

    @property
    def instance(self) -> str:
        label = self.label
        return label if isinstance(label, str) else _describe(label)


@dataclass
class SuiteResult:
    """Outcome of one suite run."""

    suite: str
    description: str
    checked: int
    failures: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _describe(g: Graph) -> str:
    return f"n={g.n} edges={list(g.edges())}"


def labelled_graphs(max_order: int, min_order: int = 1) -> Iterator[Graph]:
    """Every labelled graph of each order from `min_order` to `max_order`:
    by order, then by edge mask, bit i standing for the i-th vertex pair in
    `combinations` order."""
    for n in range(min_order, max_order + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            yield build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


class VerifyContext:
    """Instance sources and memoized solves shared by all suites.

    The battery holds every graph of order up to `max_order`, which must
    lie in 1..6 (order 7 alone has 2,097,152 labelled graphs), plus
    `samples` >= 0 seeded graphs at each of the two orders above it.
    """

    def __init__(
        self,
        max_order: int = 4,
        samples: int = 15,
        seed: int = 0,
        deletion_samples: int = 30,
        tree_samples: int = 25,
        flatten_per_case: int = 2,
    ) -> None:
        if not 1 <= max_order <= 6:
            raise ValueError(f"max order must lie in 1..6, got {max_order}")
        if samples < 0:
            raise ValueError(f"samples must be nonnegative, got {samples}")
        self.max_order = max_order
        self.samples = samples
        self.seed = seed
        self.deletion_samples = deletion_samples
        self.tree_samples = tree_samples
        self.flatten_per_case = flatten_per_case
        self._battery: Optional[list[Graph]] = None
        self._trees: Optional[list[Graph]] = None
        self._dist: dict[Graph, DistanceMatrix] = {}
        self._solved: dict[tuple[str, Graph], object] = {}

    def rng_for(self, name: str) -> random.Random:
        return random.Random(f"{self.seed}:{name}")

    def dist(self, g: Graph) -> DistanceMatrix:
        """g's bundle: its distances, and its twins and profiles once each."""
        if g not in self._dist:
            self._dist[g] = all_pairs_distances(g)
        return self._dist[g]

    def result(self, kind: str, g: Graph):
        key = (kind, g)
        if key not in self._solved:
            fn = {"dim": solve_dim, "adim": solve_adim, "bdim": solve_bdim}[kind]
            self._solved[key] = fn(g, self.dist(g))
        return self._solved[key]

    def solve(self, kind: str, g: Graph) -> int:
        return self.result(kind, g).value

    def battery(self) -> list[Graph]:
        """All graphs up to max_order plus seeded samples two orders higher."""
        if self._battery is None:
            out = list(labelled_graphs(self.max_order))
            rng = self.rng_for("battery")
            for n in (self.max_order + 1, self.max_order + 2):
                for _ in range(self.samples):
                    p = rng.uniform(0.15, 0.85)
                    out.append(families.random_graph(n, p, rng.randrange(2**31)))
            self._battery = out
        return self._battery

    def deletion_graphs(self) -> Iterator[Graph]:
        """Seeded connected graphs of order 3..8."""
        rng = self.rng_for("deletion")
        produced = 0
        while produced < self.deletion_samples:
            n = rng.randint(3, 8)
            p = rng.uniform(0.25, 0.8)
            g = families.random_graph(n, p, rng.randrange(2**31))
            if self.dist(g).profile.connected:
                produced += 1
                yield g

    def trees(self) -> list[Graph]:
        """The battery's trees followed by `tree_samples` seeded random
        trees of order 2..10."""
        if self._trees is None:
            rng = self.rng_for("trees")
            self._trees = [g for g in self.battery() if self.dist(g).tree.is_tree]
            self._trees += [
                families.random_tree(rng.randint(2, 10), rng.randrange(2**31))
                for _ in range(self.tree_samples)
            ]
        return self._trees


def naive_min_broadcasts(g: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Second-route enumerator: scan every value vector of each cost, from
    cost 1 up, in plain counting order and keep the resolving ones,
    straight from the definitions, with no caps and no pruning. The
    vectors of one cost are made directly, not filtered from all vectors
    with entries up to it."""
    n = g.n
    if n == 0:
        raise ValueError("graph has no vertices")
    inf = float("inf")
    dist: list[list[float]] = []
    for s in range(n):
        row: list[float] = [inf] * n
        row[s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for w in g.adjacency[u]:
                if row[w] == inf:
                    row[w] = row[u] + 1
                    queue.append(w)
        dist.append(row)

    s = 1
    while True:
        # cut[i][z][v] = min(dist[z][v], i + 1): the entry of v's code from
        # landmark z at strength i, for each strength up to the cost s.
        cut = [[tuple(min(e, i + 1) for e in row) for row in dist] for i in range(s + 1)]
        # The vectors of cost s in counting order: n - 1 bars among
        # s + n - 1 slots, in `combinations` order, vec[i] the number of
        # slots between bar i - 1 and bar i.
        found = []
        for bars in combinations(range(s + n - 1), n - 1):
            vec = tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, s + n - 1)))
            codes = zip(*(cut[v][z] for z, v in enumerate(vec) if v))
            if len(set(codes)) == n:
                found.append(vec)
        if found:
            return s, tuple(found)
        s += 1


# ---------------------------------------------------------------- suites

# What a graph check says of one instance: (passed, detail), or None to
# leave the instance out of the suite's count.
Outcome = Optional[tuple[bool, str]]


def each(source: Callable[[VerifyContext], Iterable[Graph]], min_order: int = 1):
    """Make a suite of `check(ctx, g) -> Outcome`: one Check per graph of
    `source(ctx)` of order at least `min_order` whose outcome is not None."""

    def suite(check: Callable[[VerifyContext, Graph], Outcome]):
        @functools.wraps(check)
        def run(ctx: VerifyContext) -> Iterator[Check]:
            for g in source(ctx):
                if g.n >= min_order and (outcome := check(ctx, g)) is not None:
                    yield Check(g, *outcome)

        return run

    return suite


@each(VerifyContext.battery)
def suite_chain(ctx: VerifyContext, g: Graph) -> Outcome:
    if g.n == 1:
        vals = (ctx.solve("dim", g), ctx.solve("adim", g), ctx.solve("bdim", g))
        return vals == (1, 1, 1), f"order-1 convention got {vals}"
    dim = ctx.solve("dim", g)
    bdim = ctx.solve("bdim", g)
    adim = ctx.solve("adim", g)
    return dim <= bdim <= adim <= g.n - 1, f"dim={dim} bdim={bdim} adim={adim}"


@each(VerifyContext.battery, min_order=2)
def suite_diam_collapse(ctx: VerifyContext, g: Graph) -> Outcome:
    prof = ctx.dist(g).profile
    if not prof.connected or prof.diameter > 2:
        return None
    vals = {ctx.solve("dim", g), ctx.solve("adim", g), ctx.solve("bdim", g)}
    return len(vals) == 1, f"values {sorted(vals)}"


@each(VerifyContext.battery)
def suite_complement_adim(ctx: VerifyContext, g: Graph) -> Outcome:
    a = ctx.solve("adim", g)
    b = ctx.solve("adim", complement(g))
    return a == b, f"adim={a} complement={b}"


@each(VerifyContext.battery)
def suite_twin_distance(ctx: VerifyContext, g: Graph) -> Outcome:
    d = ctx.dist(g)
    for u, w in d.twins.pairs:
        for z in range(g.n):
            if z not in (u, w) and d.dist[z][u] != d.dist[z][w]:
                return False, f"pair ({u},{w}) split by {z}"
    return True, ""


@each(VerifyContext.battery, min_order=3)
def suite_twin_support(ctx: VerifyContext, g: Graph) -> Outcome:
    pairs = ctx.dist(g).twins.pairs
    if not pairs:
        return None
    for u, w in pairs:
        vals = [1] * g.n
        vals[u] = vals[w] = 0
        verdict = is_resolving_broadcast(g, tuple(vals), ctx.dist(g))
        if verdict.resolving or verdict.unresolved_pair != (u, w):
            return False, f"pair ({u},{w}) gave {verdict}"
    return True, ""


@each(VerifyContext.battery, min_order=2)
def suite_truncation(ctx: VerifyContext, g: Graph) -> Outcome:
    n = g.n
    # Every entry is checked; a failing graph reports its last fault.
    detail = ""
    for x, row in enumerate(ctx.dist(g).dist):
        prev = None
        # k + 1 passes n at k = n, so both ways of truncating are seen.
        for k in range(1, n + 3):
            cut = truncated_row(row, k, n)
            for y, (real, got) in enumerate(zip(row, cut)):
                if prev is not None and got < prev[y]:
                    detail = f"d_k({x},{y}) dropped at k={k}"
                elif real < n and k >= real and got != real:
                    detail = f"d_k({x},{y}) missed exact distance at k={k}"
                elif real >= n and got != k + 1:
                    detail = f"d_k({x},{y}) infinite pair not pinned at k+1={k + 1}"
            prev = cut
    return not detail, detail


@each(VerifyContext.battery, min_order=2)
def suite_counting_witness(ctx: VerifyContext, g: Graph) -> Outcome:
    witness = ctx.result("bdim", g).witness
    return counting_feasible(g, witness), f"witness {witness.values}"


@each(VerifyContext.battery, min_order=2)
def suite_broadcast_monotone(ctx: VerifyContext, g: Graph) -> Outcome:
    d = ctx.dist(g)
    base = ctx.result("bdim", g).witness.values
    for v in range(g.n):
        raised = list(base)
        raised[v] += 1
        if not is_resolving_broadcast(g, tuple(raised), d):
            return False, f"raising vertex {v} broke resolution"
    return True, ""


@each(VerifyContext.battery, min_order=2)
def suite_bdim_sandwich(ctx: VerifyContext, g: Graph) -> Outcome:
    prof = ctx.dist(g).profile
    if not prof.connected:
        return None
    diam = prof.diameter
    bdim = ctx.solve("bdim", g)
    high = diam < 2 or bdim <= ctx.solve("dim", g) * (diam - 1)
    return -(-diam // 3) <= bdim and high, f"d={diam} bdim={bdim}"


@each(VerifyContext.battery, min_order=2)
def suite_deltaprime_ratio(ctx: VerifyContext, g: Graph) -> Outcome:
    dp = delta_prime(g, ctx.dist(g))
    adim = ctx.solve("adim", g)
    bdim = ctx.solve("bdim", g)
    return adim <= (dp + 1) * bdim, f"adim={adim} deltaprime={dp} bdim={bdim}"


@each(VerifyContext.battery, min_order=2)
def suite_order_bounds(ctx: VerifyContext, g: Graph) -> Outcome:
    records = formulas.bound_report(
        g,
        dim=ctx.solve("dim", g),
        adim=ctx.solve("adim", g),
        bdim=ctx.solve("bdim", g),
        d=ctx.dist(g),
    )
    bad = [r.id for r in records if r.applicable and not r.holds]
    return not bad, f"violated: {bad}"


@each(VerifyContext.battery)
def suite_characterizations(ctx: VerifyContext, g: Graph) -> Outcome:
    records = formulas.characterize_small(
        g, adim=ctx.solve("adim", g), bdim=ctx.solve("bdim", g)
    )
    bad = [r.id for r in records if not r.consistent]
    return not bad, f"inconsistent: {bad}"


def suite_cap_safety(ctx: VerifyContext) -> Iterator[Check]:
    rng = ctx.rng_for("cap-safety")
    for g in ctx.battery():
        if g.n < 2:
            continue
        d = ctx.dist(g)
        caps = broadcast_value_caps(g, d)
        connected = d.profile.connected
        ok = True
        detail = ""
        for _ in range(3):
            vals = [rng.randint(0, caps[v] + 2) for v in range(g.n)]
            bump = rng.randrange(g.n)
            vals[bump] = caps[bump] + 1 + rng.randint(0, 2)
            capped = tuple(min(x, caps[v]) for v, x in enumerate(vals))
            vals = tuple(vals)
            # Capping keeps the support, and a verdict is a function of the
            # code table: on a connected graph equal tables are the stronger
            # check, elsewhere the verdicts must agree.
            if connected:
                if broadcast_codes(g, d, vals) != broadcast_codes(g, d, capped):
                    ok, detail = False, f"codes changed under caps for {vals}"
                    break
            elif is_resolving_broadcast(g, vals, d) != is_resolving_broadcast(g, capped, d):
                ok, detail = False, f"verdict changed under caps for {vals}"
                break
        yield Check(g, ok, detail)


@each(VerifyContext.battery)
def suite_enumeration(ctx: VerifyContext, g: Graph) -> Outcome:
    if g.n > 5:
        return None
    res = enumerate_min_broadcasts(g, ctx.dist(g))
    cost, found = naive_min_broadcasts(g)
    return (
        res.optimal_cost == cost and res.broadcasts == found,
        f"solver cost={res.optimal_cost} #={len(res.broadcasts)}; naive cost={cost} #={len(found)}",
    )


def suite_flatten(ctx: VerifyContext) -> Iterator[Check]:
    rng = ctx.rng_for("flatten")
    for shape, builder in (("path", families.path), ("cycle", families.cycle)):
        for n in range(4, 13):
            g = builder(n)
            d = ctx.dist(g)
            processed = 0
            attempts = 0
            while processed < ctx.flatten_per_case and attempts < 300:
                attempts += 1
                support = rng.sample(range(n), rng.randint(2, min(n, 5)))
                vals = [0] * n
                for v in support:
                    vals[v] = rng.randint(1, 3)
                f = tuple(vals)
                if not is_resolving_broadcast(g, f, d):
                    continue
                processed += 1
                flat = flatten_path_cycle_broadcast(g, f, d)
                ok = (
                    all(x <= 1 for x in flat.values)
                    and flat.cost <= sum(f)
                    and bool(is_resolving_broadcast(g, flat, d))
                )
                yield Check(f"{shape} n={n} f={f}", ok, f"flattened to {flat.values}")
            if processed == 0:
                yield Check(f"{shape} n={n}", False, "no resolving sample found")


def suite_family_formulas(ctx: VerifyContext) -> Iterator[Check]:
    rng = ctx.rng_for("kpartite")
    partitions = [(1, 1), (1, 2, 2), (2, 2, 2), (1, 1, 3)]
    while len(partitions) < 12:
        k = rng.randint(2, 4)
        parts = tuple(sorted(rng.randint(1, 3) for _ in range(k)))
        if sum(parts) <= 10:
            partitions.append(parts)
    every = ("dim", "adim", "bdim")
    # (family, [params], kinds); cycles keep to adim and bdim, as the
    # catalog answers dim for C3 alone.
    table = [
        ("path", [{"n": n} for n in range(1, 13)], every),
        ("cycle", [{"n": n} for n in range(3, 13)], ("adim", "bdim")),
        ("wheel", [{"n": n} for n in range(3, 10)], every),
        ("fan", [{"n": n} for n in range(1, 10)], every),
        ("complete_multipartite", [{"parts": p} for p in partitions], every),
        ("petersen", [{}], every),
        ("complete", [{"n": n} for n in range(1, 9)], every),
        ("empty", [{"n": n} for n in range(1, 9)], every),
        ("spider", [{"x": x, "s": s} for x in range(3, 6) for s in range(x + 1)], every),
    ]
    for family, instances, kinds in table:
        for params in instances:
            g = families.generate(families.FamilySpec(family, params))
            for kind in kinds:
                got = ctx.solve(kind, g)
                res = formulas.closed_form(formulas.FormulaQuery(kind, family, params))
                if res.applicable:
                    yield Check(
                        f"{family} {params} {kind}",
                        got == res.value,
                        f"solver={got} formula={res.value}",
                    )
    for x in range(3, 6):
        g = families.spider(x, x)
        dim, bdim = ctx.solve("dim", g), ctx.solve("bdim", g)
        yield Check(f"spider x={x} s={x} strict gap", bdim > dim, f"dim={dim} bdim={bdim}")


@each(VerifyContext.trees)
def suite_tree_dim(ctx: VerifyContext, g: Graph) -> Outcome:
    want = formulas.tree_dim(g, ctx.dist(g))
    got = ctx.solve("dim", g)
    return got == want, f"solver={got} structural={want}"


@each(VerifyContext.trees)
def suite_tree_witness(ctx: VerifyContext, g: Graph) -> Outcome:
    if ctx.dist(g).tree.ex == 0:
        return None
    witness = ctx.result("dim", g).witness
    return formulas.verify_zhang_structure(g, witness, ctx.dist(g)), f"witness {witness}"


@each(VerifyContext.trees, min_order=2)
def suite_tree_bdim(ctx: VerifyContext, g: Graph) -> Outcome:
    dim = ctx.solve("dim", g)
    bdim = ctx.solve("bdim", g)
    res = formulas.spider_bdim(g, ctx.dist(g))
    detail = f"dim={dim} bdim={bdim} qualifying={res.applicable}"
    if dim != bdim or not res.applicable:
        return (dim == bdim) == res.applicable, detail
    w = res.witness
    ok = (
        res.value == bdim
        and w is not None
        and bool(is_resolving_broadcast(g, w, ctx.dist(g)))
        and w.cost == bdim
    )
    return ok, f"{detail} witness={w.values if w else None}"


@each(VerifyContext.deletion_graphs)
def suite_vertex_deletion(ctx: VerifyContext, g: Graph) -> Outcome:
    a = ctx.solve("adim", g)
    for v in range(g.n):
        h, _ = delete_vertex(g, v)
        if h.n < 2 or not ctx.dist(h).profile.connected:
            continue
        ah = ctx.solve("adim", h)
        if a > ah + 1:
            return False, f"delete {v}: adim {a} > {ah}+1"
    return True, ""


@each(VerifyContext.deletion_graphs)
def suite_edge_deletion(ctx: VerifyContext, g: Graph) -> Outcome:
    a = ctx.solve("adim", g)
    dim = ctx.solve("dim", g)
    for e in g.edges():
        h = delete_edge(g, e)
        if not ctx.dist(h).profile.connected:
            continue
        ah = ctx.solve("adim", h)
        dh = ctx.solve("dim", h)
        if abs(a - ah) > 1:
            return False, f"delete {e}: adim {a} vs {ah}"
        if dh > dim + 2:
            return False, f"delete {e}: dim {dh} > {dim}+2"
    return True, ""


@each(VerifyContext.battery, min_order=2)
def suite_dimk(ctx: VerifyContext, g: Graph) -> Outcome:
    d = ctx.dist(g)
    if solve_dim_k(g, 1, d).value != ctx.solve("adim", g):
        return False, "dim_1 != adim"
    prof = d.profile
    if prof.connected:
        k = max(1, prof.diameter - 1)
        if solve_dim_k(g, k, d).value != ctx.solve("dim", g):
            return False, f"dim_{k} != dim at diameter {prof.diameter}"
    if g.n <= 5:
        prev = None
        for k in range(1, g.n + 1):
            val = solve_dim_k(g, k, d).value
            if prev is not None and val > prev:
                return False, f"dim_k rose at k={k}"
            prev = val
    return True, ""


def suite_sharp_families(ctx: VerifyContext) -> Iterator[Check]:
    for k in (1, 2, 3):
        g = families.logn_sharp(k)
        order_ok = g.n == k + 2**k
        clique_ok = clique_number(g) == 2**k
        degree_ok = max(g.degree(v) for v in range(g.n)) == k + 2**k - 1
        adim = ctx.solve("adim", g)
        bdim = ctx.solve("bdim", g)
        yield Check(
            f"logn_sharp k={k}",
            order_ok and clique_ok and degree_ok and adim == k and bdim == k,
            f"order={g.n} clique={clique_number(g)} adim={adim} bdim={bdim}",
        )
    for n in range(4, 13):
        g = families.logn_sharp_trimmed(n)
        k = counting_floor(n, 2)
        adim = ctx.solve("adim", g)
        yield Check(
            f"logn_sharp_trimmed n={n}", g.n == n and adim <= k, f"order={g.n} adim={adim} cap={k}"
        )
    g = families.subgraph_gap(3)
    base = 6
    induced_complete = all(g.has_edge(u, v) for u in range(base) for v in range(u + 1, base))
    prof = ctx.dist(g).profile
    dims = (ctx.solve("dim", g), ctx.solve("adim", g), ctx.solve("bdim", g))
    clique_dim = ctx.solve("dim", families.complete(base))
    yield Check(
        "subgraph_gap k=3",
        g.n == 9
        and induced_complete
        and prof.diameter == 2
        and dims[0] <= 3
        and len(set(dims)) == 1
        and clique_dim == base - 1,
        f"order={g.n} dims={dims} clique_dim={clique_dim}",
    )
    g = families.vdel_gap(2)
    gv, _ = delete_vertex(g, g.n - 1)
    prof = ctx.dist(g).profile
    profv = ctx.dist(gv).profile
    yield Check(
        "vdel_gap k=2",
        g.n == 8
        and prof.diameter == 2
        and profv.diameter == 2
        and ctx.solve("dim", g) == 3
        and ctx.solve("dim", gv) == 4,
        f"dim={ctx.solve('dim', g)} after={ctx.solve('dim', gv)}",
    )
    g = families.edge_gap(3, 2, 3)
    e = families.edge_gap_special_edge(3, 2, 3)
    ge = delete_edge(g, e)
    yield Check(
        "edge_gap (3,2,3)",
        g.n == 11 and ctx.solve("adim", g) == 6 and ctx.solve("adim", ge) == 7,
        f"adim={ctx.solve('adim', g)} after={ctx.solve('adim', ge)}",
    )
    for k, want in ((1, 2), (2, 4), (3, 8)):
        g = families.kK2(k)
        res = enumerate_min_broadcasts(g, ctx.dist(g))
        yield Check(
            f"kK2 k={k}",
            res.optimal_cost == k and len(res.broadcasts) == want,
            f"cost={res.optimal_cost} count={len(res.broadcasts)}",
        )
    g = families.kK2_plus_isolated(2)
    yield Check(
        "kK2_plus_isolated k=2", ctx.solve("bdim", g) == 2, f"bdim={ctx.solve('bdim', g)}"
    )
    for m in range(2, 5):
        for n in range(2, 5):
            g = families.grid((m, n))
            dim = ctx.solve("dim", g)
            prof = ctx.dist(g).profile
            bdim = ctx.solve("bdim", g)
            low = -(-prof.diameter // 3)
            yield Check(
                f"grid {m}x{n}",
                dim == 2 and low <= bdim <= 2 * (prof.diameter - 1),
                f"dim={dim} bdim={bdim} d={prof.diameter}",
            )
    g = families.grid((2, 2, 2))
    yield Check("grid 2x2x2", ctx.solve("dim", g) <= 3, f"dim={ctx.solve('dim', g)}")
    for k in (2, 3):
        base = families.grid((k, k))
        apexed = families.grid_plus_apex(k)
        yield Check(
            f"grid_plus_apex k={k}",
            ctx.solve("adim", apexed) >= ctx.solve("adim", base),
            f"base={ctx.solve('adim', base)} apexed={ctx.solve('adim', apexed)}",
        )
    for k in (1, 2, 3):
        for i in range(3):
            g = families.sample_Hk(k, seed=ctx.seed + i)
            adim = ctx.solve("adim", g)
            yield Check(f"sample_Hk k={k} i={i}", adim <= k, f"adim={adim} order={g.n}")


SUITES: dict[str, tuple[Callable[[VerifyContext], Iterator[Check]], str]] = {
    "chain": (suite_chain, "dim <= bdim <= adim <= n-1 on every graph of order >= 2"),
    "diam-collapse": (suite_diam_collapse, "diameter <= 2 forces dim = bdim = adim"),
    "complement-adim": (suite_complement_adim, "adim is invariant under complementation"),
    "twin-distance": (suite_twin_distance, "twins are equidistant from every third vertex"),
    "twin-support": (suite_twin_support, "a broadcast silent on both twins leaves exactly that pair unresolved"),
    "truncation": (suite_truncation, "truncated rows are monotone in k, exact once k+1 exceeds the distance, and pin unreachable entries at k+1"),
    "counting-witness": (suite_counting_witness, "solver broadcast witnesses satisfy the counting condition"),
    "broadcast-monotone": (suite_broadcast_monotone, "raising any strength of a resolving broadcast keeps it resolving"),
    "bdim-sandwich": (suite_bdim_sandwich, "ceil(d/3) <= bdim and, for d >= 2, bdim <= dim*(d-1)"),
    "deltaprime-ratio": (suite_deltaprime_ratio, "adim <= (delta'+1) * bdim"),
    "order-bounds": (suite_order_bounds, "every applicable bound record holds"),
    "characterizations": (suite_characterizations, "small/extreme-value biconditionals match structure"),
    "cap-safety": (suite_cap_safety, "capping strengths never changes any resolution verdict"),
    "enumeration": (suite_enumeration, "minimum-broadcast enumeration matches the naive second route"),
    "flatten": (suite_flatten, "flattening yields 0/1 resolving broadcasts of no greater cost"),
    "family-formulas": (suite_family_formulas, "catalog formulas match the solvers on their families"),
    "tree-dim": (suite_tree_dim, "tree dimension equals leaves minus exterior majors"),
    "tree-witness": (suite_tree_witness, "tree dim witnesses have the leg-per-major structure"),
    "tree-bdim": (suite_tree_bdim, "dim = bdim exactly for short paths and qualifying spiders"),
    "vertex-deletion": (suite_vertex_deletion, "adim(G) <= adim(G-v) + 1 for connectivity-keeping deletions"),
    "edge-deletion": (suite_edge_deletion, "adim moves by at most 1 and dim by at most 2 under edge deletion"),
    "dimk": (suite_dimk, "dim_1 = adim, dim_k is monotone, and large k recovers dim"),
    "sharp-families": (suite_sharp_families, "the extremal constructions hit their advertised values"),
}


def run_suites(
    suite_ids: Optional[list[str]] = None, ctx: Optional[VerifyContext] = None
) -> list[SuiteResult]:
    """Run the requested suites (all by default) and collect results."""
    if ctx is None:
        ctx = VerifyContext()
    if suite_ids is None:
        suite_ids = list(SUITES)
    results = []
    for sid in suite_ids:
        if sid not in SUITES:
            raise KeyError(f"unknown suite {sid!r}")
        fn, description = SUITES[sid]
        checked = 0
        failures = []
        for check in fn(ctx):
            checked += 1
            if not check.passed:
                failures.append(check)
        results.append(SuiteResult(sid, description, checked, failures))
    return results
