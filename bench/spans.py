"""In-memory span recorder that wraps resolvedim's public functions from
outside, at the names their callers bind.

Each call to a wrapped function records a span: its name, start, end and
the span open when it began (its parent). Spans live in flat arrays until
the run writes them out. A span's self time is its duration minus the
durations of its children; children run one after another inside their
parent, so their durations never overlap.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from pathlib import Path
from time import perf_counter

# (span name, module, function) for each layer boundary. Every module of
# the package that binds the function gets the wrapper, so calls from the
# CLI, the solvers and the battery are all seen.
LAYERS = (
    ("cli.main", "cli", "main"),
    ("graphio.parse", "graphio", "parse_graph"),
    ("graphs.bfs", "graphs", "all_pairs_distances"),
    ("graphs.twins", "graphs", "twin_partition"),
    ("graphs.profile", "graphs", "metric_profile"),
    ("solvers.dim", "solvers", "solve_dim"),
    ("solvers.adim", "solvers", "solve_adim"),
    ("solvers.dimk", "solvers", "solve_dim_k"),
    ("solvers.bdim", "solvers", "solve_bdim"),
    ("solvers.caps", "solvers", "broadcast_value_caps"),
    ("solvers.enum", "solvers", "enumerate_min_broadcasts"),
    ("solvers.revalidate", "solvers", "revalidate"),
    ("resolution.check", "resolution", "is_resolving_set"),
    ("resolution.check", "resolution", "is_adjacency_resolving_set"),
    ("resolution.check", "resolution", "is_resolving_broadcast"),
    ("formulas.bound_report", "formulas", "bound_report"),
    ("verify.naive_enum", "verify", "naive_min_broadcasts"),
)
# solve_adim delegates to solve_dim_k through this binding; wrapping it
# would count every adim solve a second time as a dimk solve.
SKIP = {("solvers", "solve_dim_k")}
# (span name, module, class, method)
METHODS = (
    ("cli.report_json", "cli", "Report", "to_json"),
    ("verify.context_result", "verify", "VerifyContext", "result"),
)
SOLVE_SPANS = ("solvers.dim", "solvers.adim", "solvers.dimk", "solvers.bdim")
MODULES = ("cli", "graphio", "graphs", "solvers", "resolution", "formulas", "verify", "families")


class Tracer:
    """Records spans for the functions it wraps until ``restore``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        # Called before each wrapped call, outside its span.
        self.before_call = None
        self.clear()

    def clear(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.candidates = 0

    def __len__(self) -> int:
        return len(self.end)

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, owner, attr: str, span: str, count_candidates: bool = False) -> None:
        fn = getattr(owner, attr)
        nid = self._id(span)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.before_call is not None:
                self.before_call()
            i = len(self.name)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(nid)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if count_candidates:
                self.candidates += result.candidates_examined
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def wrap_bindings(self, rd, span: str, module: str, func: str, only=None) -> None:
        """Wrap ``func`` wherever a module of the package binds it (or only
        in the modules named in ``only``)."""
        target = inspect.unwrap(getattr(getattr(rd, module), func))
        for modname in only or MODULES:
            mod = getattr(rd, modname)
            for attr, value in list(vars(mod).items()):
                if (modname, attr) in SKIP or not callable(value):
                    continue
                if inspect.unwrap(value) is target:
                    self.wrap(mod, attr, span, count_candidates=span in SOLVE_SPANS)

    def wrap_layers(self, rd) -> None:
        for span, module, func in LAYERS:
            self.wrap_bindings(rd, span, module, func)
        for span, module, cls, method in METHODS:
            self.wrap(getattr(getattr(rd, module), cls), method, span)

    def wrap_families(self, rd) -> None:
        fam = rd.families
        for attr, value in list(vars(fam).items()):
            if inspect.isfunction(value) and value.__module__ == fam.__name__ and not attr.startswith("_"):
                self.wrap(fam, attr, "families.generate")

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time."""
        n = len(self)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name[i]]]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - covered[i]
        return out

    def memo_counts(self) -> tuple[int, int]:
        """Context solve requests, and how many of them the memo served
        (a request with no solver span below it)."""
        result_id = self._ids.get("verify.context_result")
        solve_ids = {self._ids[s] for s in SOLVE_SPANS if s in self._ids}
        requests = 0
        solved = set()
        for i in range(len(self)):
            if self.name[i] == result_id:
                requests += 1
            elif self.name[i] in solve_ids and self.parent[i] >= 0 and self.name[self.parent[i]] == result_id:
                solved.add(self.parent[i])
        return requests, requests - len(solved)

    def solve_spans(self) -> list[tuple[str, float, float, float]]:
        """(parameter, seconds, start, end) of every solver span, in call
        order."""
        kinds = {self._ids[s]: s.split(".")[1] for s in SOLVE_SPANS if s in self._ids}
        return [
            (kinds[self.name[i]], self.end[i] - self.start[i], self.start[i], self.end[i])
            for i in range(len(self))
            if self.name[i] in kinds
        ]

    def write_csv(self, path: Path, origin: float) -> None:
        """Write every span as name,start_s,end_s,parent (times from origin)."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for i in range(len(self)):
                fh.write(
                    f"{self.names[self.name[i]]},{self.start[i] - origin:.9f},"
                    f"{self.end[i] - origin:.9f},{self.parent[i]}\n"
                )
