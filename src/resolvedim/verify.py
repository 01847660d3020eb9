"""Theorem battery: re-checks every library invariant on exhaustive
small orders, seeded samples, and the sharp constructions.

Each suite yields one check per instance; a failing check carries the
graph literal so the case can be replayed. The minimum-broadcast
enumerator is cross-checked against `naive_min_broadcasts`, a
definition-direct second route that shares no code with the solver
(its own BFS, its own vector scan, its own code comparison).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, Iterator, Optional

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
from .resolution import broadcast_code, counting_feasible, is_resolving_broadcast
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
    """One verified instance; failing checks carry a replayable detail."""

    instance: str
    passed: bool
    detail: str = ""


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
            out = []
            for n in range(1, self.max_order + 1):
                pairs = list(combinations(range(n), 2))
                for mask in range(2 ** len(pairs)):
                    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                    out.append(build_graph(n, edges))
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

    def random_trees(self, max_order: int = 10) -> Iterator[Graph]:
        rng = self.rng_for("trees")
        for _ in range(self.tree_samples):
            n = rng.randint(2, max_order)
            yield families.random_tree(n, rng.randrange(2**31))

    def trees(self) -> list[Graph]:
        """The battery's trees followed by the seeded random trees."""
        if self._trees is None:
            self._trees = [g for g in self.battery() if self.dist(g).tree.is_tree]
            self._trees += self.random_trees()
        return self._trees


def naive_min_broadcasts(g: Graph) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Second-route enumerator: scan every value vector of each cost in
    plain counting order and keep the resolving ones, straight from the
    definitions, with no caps and no pruning."""
    n = g.n
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

    def resolves(vec: tuple[int, ...]) -> bool:
        supp = [z for z in range(n) if vec[z] > 0]
        if not supp:
            return False
        seen = set()
        for v in range(n):
            seen.add(tuple(min(dist[z][v], vec[z] + 1) for z in supp))
        return len(seen) == n

    s = 1
    while True:
        found = [
            vec
            for vec in product(range(s + 1), repeat=n)
            if sum(vec) == s and resolves(vec)
        ]
        if found:
            return s, tuple(found)
        s += 1


# ---------------------------------------------------------------- suites


def suite_chain(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.battery():
        if g.n == 1:
            vals = (ctx.solve("dim", g), ctx.solve("adim", g), ctx.solve("bdim", g))
            yield Check(_describe(g), vals == (1, 1, 1), f"order-1 convention got {vals}")
            continue
        dim = ctx.solve("dim", g)
        bdim = ctx.solve("bdim", g)
        adim = ctx.solve("adim", g)
        ok = dim <= bdim <= adim <= g.n - 1
        yield Check(_describe(g), ok, f"dim={dim} bdim={bdim} adim={adim}")


def suite_diam_collapse(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.battery():
        prof = ctx.dist(g).profile
        if g.n < 2 or not prof.connected or prof.diameter > 2:
            continue
        vals = {ctx.solve("dim", g), ctx.solve("adim", g), ctx.solve("bdim", g)}
        yield Check(_describe(g), len(vals) == 1, f"values {sorted(vals)}")


def suite_complement_adim(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.battery():
        a = ctx.solve("adim", g)
        b = ctx.solve("adim", complement(g))
        yield Check(_describe(g), a == b, f"adim={a} complement={b}")


def suite_twin_distance(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.battery():
        d = ctx.dist(g)
        bad = ""
        for u, w in d.twins.pairs:
            for z in range(g.n):
                if z in (u, w):
                    continue
                if d.dist[z][u] != d.dist[z][w]:
                    bad = f"pair ({u},{w}) split by {z}"
                    break
            if bad:
                break
        yield Check(_describe(g), not bad, bad)


def suite_twin_support(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.battery():
        if g.n < 3:
            continue
        pairs = ctx.dist(g).twins.pairs
        if not pairs:
            continue
        ok = True
        detail = ""
        for u, w in pairs:
            vals = [1] * g.n
            vals[u] = vals[w] = 0
            verdict = is_resolving_broadcast(g, tuple(vals), ctx.dist(g))
            if verdict.resolving or verdict.unresolved_pair != (u, w):
                ok = False
                detail = f"pair ({u},{w}) gave {verdict}"
                break
        yield Check(_describe(g), ok, detail)


def suite_truncation(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.battery():
        n = g.n
        if n < 2:
            continue
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
        yield Check(_describe(g), not detail, detail)


def suite_counting_witness(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.battery():
        if g.n < 2:
            continue
        witness = ctx.result("bdim", g).witness
        ok = counting_feasible(g, witness)
        yield Check(_describe(g), ok, f"witness {witness.values}")


def suite_broadcast_monotone(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.battery():
        if g.n < 2:
            continue
        d = ctx.dist(g)
        base = ctx.result("bdim", g).witness.values
        ok = True
        detail = ""
        for v in range(g.n):
            raised = list(base)
            raised[v] += 1
            if not is_resolving_broadcast(g, tuple(raised), d):
                ok = False
                detail = f"raising vertex {v} broke resolution"
                break
        yield Check(_describe(g), ok, detail)


def suite_bdim_sandwich(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.battery():
        prof = ctx.dist(g).profile
        if g.n < 2 or not prof.connected:
            continue
        diam = prof.diameter
        bdim = ctx.solve("bdim", g)
        low = -(-diam // 3) <= bdim
        if diam >= 2:
            high = bdim <= ctx.solve("dim", g) * (diam - 1)
        else:
            high = True
        yield Check(_describe(g), low and high, f"d={diam} bdim={bdim}")


def suite_deltaprime_ratio(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.battery():
        if g.n < 2:
            continue
        dp = delta_prime(g, ctx.dist(g))
        adim = ctx.solve("adim", g)
        bdim = ctx.solve("bdim", g)
        ok = adim <= (dp + 1) * bdim
        yield Check(_describe(g), ok, f"adim={adim} deltaprime={dp} bdim={bdim}")


def suite_order_bounds(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.battery():
        if g.n < 2:
            continue
        records = formulas.bound_report(
            g,
            dim=ctx.solve("dim", g),
            adim=ctx.solve("adim", g),
            bdim=ctx.solve("bdim", g),
            d=ctx.dist(g),
        )
        bad = [r.id for r in records if r.applicable and not r.holds]
        yield Check(_describe(g), not bad, f"violated: {bad}")


def suite_characterizations(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.battery():
        records = formulas.characterize_small(
            g, adim=ctx.solve("adim", g), bdim=ctx.solve("bdim", g)
        )
        bad = [r.id for r in records if not r.consistent]
        yield Check(_describe(g), not bad, f"inconsistent: {bad}")


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
            before = is_resolving_broadcast(g, vals, d)
            after = is_resolving_broadcast(g, capped, d)
            if (before.resolving, before.unresolved_pair) != (after.resolving, after.unresolved_pair):
                ok, detail = False, f"verdict changed under caps for {vals}"
                break
            if connected:
                same = all(
                    broadcast_code(g, d, vals, v) == broadcast_code(g, d, capped, v)
                    for v in range(g.n)
                )
                if not same:
                    ok, detail = False, f"codes changed under caps for {vals}"
                    break
        yield Check(_describe(g), ok, detail)


def suite_enumeration(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.battery():
        if g.n > 5:
            continue
        res = enumerate_min_broadcasts(g, ctx.dist(g))
        cost, found = naive_min_broadcasts(g)
        ok = res.optimal_cost == cost and res.broadcasts == found
        yield Check(
            _describe(g),
            ok,
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
                flat = flatten_path_cycle_broadcast(g, f)
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
    # (family, [(params, graph)], kinds); cycles keep to adim and bdim, as
    # the catalog answers dim for C3 alone.
    table = [
        ("path", [({"n": n}, families.path(n)) for n in range(1, 13)], every),
        ("cycle", [({"n": n}, families.cycle(n)) for n in range(3, 13)], ("adim", "bdim")),
        ("wheel", [({"n": n}, families.wheel(n)) for n in range(3, 10)], every),
        ("fan", [({"n": n}, families.fan(n)) for n in range(1, 10)], every),
        ("complete_multipartite", [({"parts": p}, families.complete_multipartite(p)) for p in partitions], every),
        ("petersen", [({}, families.petersen())], every),
        ("complete", [({"n": n}, families.complete(n)) for n in range(1, 9)], every),
        ("empty", [({"n": n}, families.empty(n)) for n in range(1, 9)], every),
        ("spider", [({"x": x, "s": s}, families.spider(x, s)) for x in range(3, 6) for s in range(x + 1)], every),
    ]
    for family, instances, kinds in table:
        for params, g in instances:
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


def suite_tree_dim(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.trees():
        want = formulas.tree_dim(g)
        got = ctx.solve("dim", g)
        yield Check(_describe(g), got == want, f"solver={got} structural={want}")


def suite_tree_witness(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.trees():
        if ctx.dist(g).tree.ex == 0:
            continue
        witness = ctx.result("dim", g).witness
        ok = formulas.verify_zhang_structure(g, witness)
        yield Check(_describe(g), ok, f"witness {witness}")


def suite_tree_bdim(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.trees():
        if g.n < 2:
            continue
        dim = ctx.solve("dim", g)
        bdim = ctx.solve("bdim", g)
        res = formulas.spider_bdim(g)
        equal = dim == bdim
        ok = equal == res.applicable
        detail = f"dim={dim} bdim={bdim} qualifying={res.applicable}"
        if ok and res.applicable:
            ok = (
                res.value == bdim
                and res.witness is not None
                and bool(is_resolving_broadcast(g, res.witness, ctx.dist(g)))
                and res.witness.cost == bdim
            )
            detail += f" witness={res.witness.values if res.witness else None}"
        yield Check(_describe(g), ok, detail)


def suite_vertex_deletion(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.deletion_graphs():
        a = ctx.solve("adim", g)
        ok = True
        detail = ""
        for v in range(g.n):
            h, _ = delete_vertex(g, v)
            if h.n < 2 or not ctx.dist(h).profile.connected:
                continue
            ah = ctx.solve("adim", h)
            if a > ah + 1:
                ok, detail = False, f"delete {v}: adim {a} > {ah}+1"
                break
        yield Check(_describe(g), ok, detail)


def suite_edge_deletion(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.deletion_graphs():
        a = ctx.solve("adim", g)
        dim = ctx.solve("dim", g)
        ok = True
        detail = ""
        for e in g.edges():
            h = delete_edge(g, e)
            if not ctx.dist(h).profile.connected:
                continue
            ah = ctx.solve("adim", h)
            dh = ctx.solve("dim", h)
            if abs(a - ah) > 1:
                ok, detail = False, f"delete {e}: adim {a} vs {ah}"
                break
            if dh > dim + 2:
                ok, detail = False, f"delete {e}: dim {dh} > {dim}+2"
                break
        yield Check(_describe(g), ok, detail)


def suite_dimk(ctx: VerifyContext) -> Iterator[Check]:
    for g in ctx.battery():
        if g.n < 2:
            continue
        d = ctx.dist(g)
        ok = solve_dim_k(g, 1, d).value == ctx.solve("adim", g)
        detail = "dim_1 != adim" if not ok else ""
        prof = d.profile
        if ok and prof.connected:
            k = max(1, prof.diameter - 1)
            if solve_dim_k(g, k, d).value != ctx.solve("dim", g):
                ok, detail = False, f"dim_{k} != dim at diameter {prof.diameter}"
        if ok and g.n <= 5:
            prev = None
            for k in range(1, g.n + 1):
                val = solve_dim_k(g, k, d).value
                if prev is not None and val > prev:
                    ok, detail = False, f"dim_k rose at k={k}"
                    break
                prev = val
        yield Check(_describe(g), ok, detail)


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
        k = 1
        while k + 2**k < n:
            k += 1
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
