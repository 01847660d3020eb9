"""The benchmark's three workloads: their instances, how the run seed picks
them from pinned pools, and the operations one pass performs.

Every instance is drawn from a pool whose outputs were pinned from known
good code (``expected.json``), so any seed can be checked:

- ``ladder`` and ``battery`` take pool variant ``seed % VARIANTS``;
- ``cli-batch`` draws a seeded half of a fixed request pool.

The pools hold instances of one difficulty band, so runs at different
seeds measure comparable work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from typing import Callable

VARIANTS = 16

# G(26, 0.3) seeds whose metric dimension is 5 and whose search examines
# 17.9k-19.3k candidates (over seeds 0..47: 17.9k-84k) in 77-97 ms.
GNP26_SEEDS = (0, 3, 5, 8, 9, 10, 11, 15, 24, 27, 28, 33, 36, 39, 43, 44)

# (instance id, parameter, generator call on resolvedim.families); the id
# names the G(n, p) seed the variant picked. Each solve takes 60-250 ms, so
# a run repeats every one dozens of times.
LADDER = (
    ("bdim-C16", "bdim", lambda fam, v: fam.cycle(16)),
    ("bdim-P14", "bdim", lambda fam, v: fam.path(14)),
    ("bdim-grid3x5", "bdim", lambda fam, v: fam.grid((3, 5))),
    ("adim-C17", "adim", lambda fam, v: fam.cycle(17)),
    ("adim-P17", "adim", lambda fam, v: fam.path(17)),
    ("dim-gnp26-s{gseed}", "dim", lambda fam, v: fam.random_graph(26, 0.3, GNP26_SEEDS[v])),
)
LADDER_TINY = (
    ("bdim-C8", "bdim", lambda fam, v: fam.cycle(8)),
    ("adim-P8", "adim", lambda fam, v: fam.path(8)),
    ("dim-gnp12-s{gseed}", "dim", lambda fam, v: fam.random_graph(12, 0.3, GNP26_SEEDS[v])),
)

# VerifyContext seeds in 0..57 whose battery examines 139k-143k solver
# candidates in 14.6k-14.9k solves (over all of 0..57: 124k-154k).
BATTERY_SEEDS = (3, 8, 11, 12, 18, 19, 23, 24, 32, 35, 40, 41, 42, 47, 55, 57)
BATTERY_CONTEXT = dict(
    max_order=5, samples=200, deletion_samples=100, tree_samples=50, flatten_per_case=50
)
BATTERY_CONTEXT_TINY = dict(
    max_order=3, samples=5, deletion_samples=5, tree_samples=5, flatten_per_case=2
)

# cli-batch: every (parameter, order) cell gets the same share of requests,
# 60% G(n, p) graphs and 40% random trees. The pool holds twice as many;
# sorted by the time each took when pinned, it splits into pairs of
# near-equal cost, and the seed picks one request of each pair, so every
# seed draws the same difficulty profile from different graphs. (Candidate
# counts are a poor cost proxy for bdim: they leave out the compositions
# pruned before the code check.)
CLI_PARAMS = ("dim", "adim", "dimk", "bdim")
CLI_ORDERS = (9, 10, 11, 12, 13)
CLI_PER_CELL = {"gnp": 30, "tree": 20}
CLI_DIMK_K = 2


@dataclass(frozen=True)
class Op:
    """One timed call. ``call`` is timed; ``output`` turns its return
    value into the JSON-comparable result pinned in ``expected.json``."""

    id: str
    param: str
    call: Callable[[], object]
    output: Callable[[object], object]
    cap_s: float


@dataclass(frozen=True)
class Request:
    """One pooled cli-batch request."""

    id: str
    param: str
    n: int
    kind: str
    index: int

    @property
    def fmt(self) -> str:
        return "json" if self.index % 2 else "txt"

    @property
    def graph_key(self) -> str:
        return f"n{self.n}-{self.kind}{self.index:02d}.{self.fmt}"


def _request(param: str, n: int, kind: str, index: int) -> Request:
    return Request(f"{param}-n{n}-{kind}{index:02d}", param, n, kind, index)


def cli_pool() -> list[Request]:
    return [
        _request(param, n, kind, i)
        for param in CLI_PARAMS
        for n in CLI_ORDERS
        for kind, count in CLI_PER_CELL.items()
        for i in range(2 * count)
    ]


def cli_selection(seed: int, costs: dict, tiny: bool = False) -> list[Request]:
    """The requests of one cli-batch pass at this seed, in call order;
    ``costs`` maps request ids to their pinned cost, and a tiny pass takes
    one pair per cell and graph kind."""
    rng = random.Random(f"cli-batch:{seed}")
    chosen = []
    for param in CLI_PARAMS:
        for n in CLI_ORDERS:
            for kind, count in CLI_PER_CELL.items():
                pool = [_request(param, n, kind, i) for i in range(2 * count)]
                pool.sort(key=lambda r: (costs[r.id], r.index))
                pairs = [pool[i : i + 2] for i in range(0, len(pool), 2)]
                if tiny:
                    pairs = [rng.choice(pairs)]
                chosen += [rng.choice(pair) for pair in pairs]
    rng.shuffle(chosen)
    return chosen


def cli_graph(fam, req: Request):
    """Generate the graph a request asks about; shared by every parameter."""
    seed = 1000 * req.n + req.index
    if req.kind == "tree":
        return fam.random_tree(req.n, seed)
    p = round(random.Random(f"p:{req.n}:{req.index}").uniform(0.25, 0.55), 2)
    return fam.random_graph(req.n, p, seed)


def _cli_ops(rd, requests, cap_s: float) -> list[Op]:
    """Ops that each run one ``resolvedim <param> - --format json`` through
    cli.main, with the graph's text as stdin, and read the JSON report it
    prints. Inputs and reports stay in memory: creating files on the
    host's disk cost more than generating the graphs, and drifted."""

    def make(op_id: str, param: str, text: str) -> Op:
        argv = [param, "-"]
        if param == "dimk":
            argv += ["-k", str(CLI_DIMK_K)]
        argv += ["--format", "json"]

        def call():
            stdin, sys.stdin = sys.stdin, io.StringIO(text)
            report = io.StringIO()
            try:
                with contextlib.redirect_stdout(report):
                    return rd.cli.main(argv), report.getvalue()
            finally:
                sys.stdin = stdin

        def output(raw):
            rc, report = raw
            if rc != 0:
                return f"exit code {rc}"
            data = json.loads(report)
            return [data["value"], data["witness"], data["stats"]["candidates_examined"]]

        return Op(op_id, param, call, output, cap_s)

    return [make(*r) for r in requests]


def cli_ops(rd, requests: list[Request]) -> list[Op]:
    """Write each request's graph once, in its format, then one op per
    request."""
    texts: dict[str, str] = {}
    calls = []
    for req in requests:
        if req.graph_key not in texts:
            g = cli_graph(rd.families, req)
            texts[req.graph_key] = (
                rd.graphio.graph_to_json(g) if req.fmt == "json" else rd.graphio.graph_to_edge_list(g)
            )
        calls.append((req.id, req.param, texts[req.graph_key]))
    return _cli_ops(rd, calls, cap_s=5.0)


class Workload:
    """Inputs built in set-up, then a fresh list of ops for each pass.

    ``expected`` maps each op id to its pinned output."""

    def __init__(self, name: str, rd, seed: int, tiny: bool, pins: dict) -> None:
        self.rd = rd
        self.variant = seed % VARIANTS
        tiny_key = "-tiny" if tiny else ""
        if name == "ladder":
            gseed = GNP26_SEEDS[self.variant]
            requests = []
            for op_id, param, build in LADDER_TINY if tiny else LADDER:
                op_id = op_id.format(gseed=gseed)
                g = build(rd.families, self.variant)
                requests.append((op_id, param, rd.graphio.graph_to_edge_list(g)))
            self._ops = _cli_ops(rd, requests, cap_s=30.0)
            self.expected = pins.get("ladder" + tiny_key, {})
        elif name == "cli-batch":
            # Tiny runs draw from the full pool too.
            self.expected = pins.get("cli-batch", {})
            self._ops = cli_ops(rd, cli_selection(seed, pins["cli-batch-cost-ms"], tiny))
        elif name == "battery":
            self._context = dict(BATTERY_CONTEXT_TINY if tiny else BATTERY_CONTEXT)
            self._context["seed"] = BATTERY_SEEDS[self.variant]
            self._ops = None
            self.expected = pins.get("battery" + tiny_key, {}).get(str(self._context["seed"]), {})
        else:
            raise ValueError(f"unknown workload {name!r}")

    def ops(self) -> list[Op]:
        if self._ops is not None:
            return self._ops
        verify = self.rd.verify
        # A fresh context per pass: its solve memo must not carry over.
        ctx = verify.VerifyContext(**self._context)

        def make(sid: str) -> Op:
            return Op(
                sid,
                "suite",
                lambda: verify.run_suites([sid], ctx)[0],
                lambda r: [r.checked, r.ok],
                cap_s=30.0,
            )

        return [make(sid) for sid in verify.SUITES]
