"""Benchmark for resolvedim: exact solves through the CLI and the verify
battery, timed from outside the package.

    python3 bench/run.py --workload ladder --seed 0 --seconds 35 --trace 0

Workloads (see ``workloads.py``):

- ``ladder``: six exponential-regime CLI solves (bdim on C16, P14 and the
  3x5 grid; adim on C17 and P17; dim on one G(26, 0.3)). Nearly all of the
  time is search in ``solvers``.
- ``battery``: all 23 verify suites, one ``run_suites`` call each, on the
  acceptance-scale ``VerifyContext`` (1,499 graphs). Thousands of tiny
  solves, so per-call overhead in ``graphs``, ``resolution`` and
  ``verify`` dominates.
- ``cli-batch``: 1,000 requests (dim, adim, dimk k=2, bdim; n = 9..13;
  60% G(n, p), 40% trees; edge-list and JSON text) through ``cli.main``,
  so parsing, BFS, revalidation, the bound report and the JSON report sit
  around medium-sized solves.

One process runs one workload as a closed loop with a single caller: each
call starts when the previous one returns. Passes repeat until
``--seconds`` have gone by. Times are normalised to a nominal host speed
by a reference loop timed between calls (``HostSpeed``). Each call has a
deadline (SIGALRM), and its output is checked against ``expected.json``;
a call that errs, times out, exits nonzero or answers differently is a
failed operation.

With ``--trace 0`` the run reports the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it alternates plain and traced passes
and reports the per-layer metrics (``spans.py``), including the tracing
overhead. The last line of stdout is the JSON result; the lines before it
give every metric with its unit, the failure fraction and the run's
environment. ``bench/out/`` receives the run record and, when traced, the
spans.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("ladder", "battery", "cli-batch")
SETUP_REPEATS = 15
# No call may run past this many seconds after the start, so a run ends
# well inside three minutes even when every call hangs.
HARD_LIMIT_S = 165.0
SOLVE_KINDS = ("dim", "adim", "dimk", "bdim")
# The host's speed drifts by up to a factor of two within seconds, as other
# tenants load the machine. Between calls, at most every REF_EVERY_S, the
# run times ``reference_loop``; each call's time is scaled by NOMINAL_REF_S
# over the loop's time around it, so it reads as seconds on a host that
# runs the loop in NOMINAL_REF_S. Under Python 3.11 on a 2-vCPU KVM guest
# of an Intel Xeon (Sapphire Rapids) host the loop took 5.1-5.6 ms at best
# and 7-9 ms as a median.
REF_EVERY_S = 0.05
# A call is judged by the median of this many samples on either side of
# it, so one sample slowed by an interrupt does not skew it.
REF_NEIGHBOURS = 3
NOMINAL_REF_S = 0.0055
REF_DOC = {"value": 5, "witness": list(range(13)), "stats": {"candidates_examined": 1234, "time": 1.5}}


class Deadline(BaseException):
    """Raised from SIGALRM when a call runs past its deadline; derives from
    BaseException so no handler inside the package can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline


def import_program():
    """Import resolvedim from this checkout's src/, never from elsewhere."""
    init = SRC / "resolvedim" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init.relative_to(ROOT)} not found; run from a resolvedim checkout")
    sys.path.insert(0, str(SRC))
    import resolvedim
    from resolvedim import cli, families, formulas, graphio, graphs, resolution, solvers, verify  # noqa: F401

    if Path(resolvedim.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported resolvedim from {resolvedim.__file__}, not {init}")
    return resolvedim


def declared_metrics() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit("error: BENCHMARK.json not found")
    spec = json.loads(path.read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def environment(seed: int, variant: int) -> dict:
    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "resolvedim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "variant": variant,
    }


def reference_loop(table: list[int]) -> int:
    """Fixed pure-Python work for the speed samples, a mix like the
    program's own: arithmetic and indexing, small containers, and JSON and
    string formatting. Its data fit the first-level caches, so how much
    the program's calls evict between samples barely changes its time. No
    object it makes outlives the call, so it leaves the garbage
    collector's counts as it found them."""
    acc = 0
    for i in range(15000):
        acc = (acc + table[(i * 37 + acc) & 1023]) % 1000003
    for i in range(3000):
        d = {"a": i, "b": (i, i + 1), "c": [i, i, i]}
        s = {i & 255, (i * 7) & 255, (i * 13) & 255}
        acc += len(d) + len(s) + d["c"][1] + len(str(i))
    for i in range(200):
        acc += len(json.loads(json.dumps(REF_DOC))["witness"]) + len(f"{i}:{acc % 97}:{'x' * 3}")
    return acc


class HostSpeed:
    """Timed runs of ``reference_loop``, by the time they were taken."""

    def __init__(self) -> None:
        self.table = list(range(1024))
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        reference_loop(self.table)
        end = perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(end - start)

    def sample_if_due(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= REF_EVERY_S:
            self.sample()

    def taken_within(self, start: float, end: float) -> float:
        """Seconds of sampling done inside the interval [start, end]."""
        return sum(self.took[bisect.bisect_left(self.at, start):bisect.bisect_right(self.at, end)])

    def normalise(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of the interval [start, end] at nominal host speed,
        judged by the samples taken within it and just around it."""
        i = bisect.bisect_left(self.at, start)
        j = bisect.bisect_right(self.at, end)
        near = self.took[max(i - REF_NEIGHBOURS, 0):j + REF_NEIGHBOURS]
        return seconds * NOMINAL_REF_S / statistics.median(near)


class Runner:
    """Runs passes of one workload and keeps what the metrics need."""

    def __init__(self, workload, expected: dict, hard_end: float) -> None:
        self.workload = workload
        self.expected = expected
        self.hard_end = hard_end
        self.attempted = 0
        self.failures: list[dict] = []
        self.outputs: dict[str, object] = {}
        self.speed = HostSpeed()

    def call(self, op):
        """Time one call under its deadline; return ((start, end), raw) or
        (None, reason)."""
        budget = min(op.cap_s, self.hard_end - perf_counter())
        if budget <= 0:
            return None, "not started: run time limit reached"
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            start = perf_counter()
            raw = op.call()
            return (start, perf_counter()), raw
        except Deadline:
            return None, f"deadline of {budget:.1f} s passed"
        except Exception:
            return None, traceback.format_exc(limit=4)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def run_pass(self, traced: bool, stop_at: float = float("inf")) -> dict:
        """One pass over the workload's ops, cut short at ``stop_at``;
        returns its wall time and the (op id, parameter, seconds, start,
        end) of each successful op."""
        timed = []
        for op in self.workload.ops():
            if perf_counter() >= stop_at:
                break
            self.attempted += 1
            self.speed.sample_if_due()
            span, raw = self.call(op)
            if span is None:
                self.fail(op.id, raw, traced)
                continue
            try:
                out = op.output(raw)
            except Exception:
                self.fail(op.id, traceback.format_exc(limit=4), traced)
                continue
            self.outputs[op.id] = out
            if op.id not in self.expected:
                self.fail(op.id, "no pinned output", traced)
            elif out != self.expected[op.id]:
                self.fail(op.id, f"got {out!r}, pinned {self.expected[op.id]!r}", traced)
            else:
                # A battery suite samples between its solves; that is not
                # the suite's time.
                seconds = span[1] - span[0] - self.speed.taken_within(*span)
                timed.append((op.id, op.param, seconds) + span)
        self.speed.sample()
        return {"wall_s": sum(t[2] for t in timed), "ops": timed, "traced": traced}

    def fail(self, op_id: str, reason: str, traced: bool) -> None:
        self.failures.append({"op": op_id, "traced": traced, "reason": reason})


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples, never beyond them."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Samples:
    """Each call's times at nominal host speed, over passes, keyed by call
    identity. Only floats accumulate, so the collector's work does not
    grow with the number of passes."""

    def __init__(self) -> None:
        self.times: dict = {}

    def add(self, records, speed: HostSpeed) -> None:
        for key, kind, seconds, start, end in records:
            self.times.setdefault(key, (kind, []))[1].append(speed.normalise(seconds, start, end))

    def medians(self) -> dict:
        """Each call's parameter and median time."""
        return {key: (kind, statistics.median(ts)) for key, (kind, ts) in self.times.items()}

    def wall(self) -> float:
        """One pass: the sum of the calls' median times."""
        return sum(t for _, t in self.medians().values())


def end_to_end(op_times: Samples, solve_times: Samples, setup_s: float) -> dict:
    solves = solve_times.medians()
    # Percentiles over every timed solve, if at least ten lie beyond p99;
    # else (ladder) over each solve's median time.
    durations = [t for _, ts in solve_times.times.values() for t in ts]
    if len(durations) < 1000:
        durations = [t for _, t in solves.values()]
    wall_s = op_times.wall()
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solve_p50_ms": 1000 * quantile(durations, 50),
        "solve_p99_ms": 1000 * quantile(durations, 99),
        "instances_per_s": len(solves) / wall_s,
    }
    for kind in ("dim", "adim", "bdim"):
        metrics[f"{kind}_s"] = sum(s for k, s in solves.values() if k == kind)
    metrics["_solves"] = len(solves)
    metrics["_timings"] = len(durations)
    metrics["_beyond_p99"] = sum(1 for d in durations if d > metrics["solve_p99_ms"] / 1000)
    return metrics


def per_layer(rd, tracer, setup_tracer, traced: list[dict], overhead_s: float) -> dict:
    count = len(traced)
    totals = tracer.totals()

    def total(span: str, key: str = "total_s") -> float:
        return totals.get(span, {}).get(key, 0.0) / count

    solve_s = sum(total(f"solvers.{k}") for k in SOLVE_KINDS)
    requests, served = tracer.memo_counts()
    metrics = {
        "cli.main_self_s": total("cli.main", "self_s"),
        "cli.report_json_s": total("cli.report_json"),
        "graphio.parse_s": total("graphio.parse"),
        "graphs.bfs_s": total("graphs.bfs"),
        "graphs.bfs_calls": total("graphs.bfs", "calls"),
        "graphs.twins_s": total("graphs.twins"),
        "graphs.profile_s": total("graphs.profile"),
        "solvers.caps_s": total("solvers.caps"),
        "solvers.candidates_examined": tracer.candidates / count,
        "solvers.candidates_per_s": tracer.candidates / count / solve_s if solve_s else 0.0,
        "solvers.enum_s": total("solvers.enum"),
        "solvers.revalidate_s": total("solvers.revalidate"),
        "resolution.check_s": total("resolution.check"),
        "resolution.check_calls": total("resolution.check", "calls"),
        "formulas.bound_report_s": total("formulas.bound_report"),
        "verify.naive_enum_s": total("verify.naive_enum"),
        "verify.solve_memo_ratio": served / requests if requests else 0.0,
        "families.generate_s": setup_tracer.totals().get("families.generate", {}).get("total_s", 0.0),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(tracer) / count,
    }
    for kind in SOLVE_KINDS:
        metrics[f"solvers.{kind}_s"] = total(f"solvers.{kind}")
    for sid in rd.verify.SUITES:
        metrics[f"verify.{sid}_s"] = sum(
            rec[2] for p in traced for rec in p["ops"] if rec[0] == sid
        ) / count
    return metrics


def measure_setup(args) -> float:
    """Median time at nominal host speed, over fresh processes, from
    process start to the end of set-up (interpreter start, import, input
    generation)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    speed = HostSpeed()
    times = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.communicate(timeout=60)
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"error: set-up child exited with {proc.returncode}")
        speed.sample()
        times.append(speed.normalise(elapsed, start, start + elapsed))
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-check")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    declared = declared_metrics()
    rd = import_program()
    import spans
    import workloads

    OUT.mkdir(exist_ok=True)
    return run(args, rd, spans, workloads, declared[args.trace])


def run(args, rd, spans, workloads, declared: dict) -> int:
    setup_tracer = spans.Tracer()
    if args.trace:
        setup_tracer.wrap_families(rd)
    pins = json.loads((HERE / "expected.json").read_text())
    workload = workloads.Workload(args.workload, rd, args.seed, args.tiny, pins)
    setup_tracer.restore()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    # The battery's solves happen inside the suites; time them at the names
    # verify calls, so its dim/adim/bdim and latency figures mean the same
    # as the CLI workloads'.
    solve_timer = spans.Tracer()
    if args.workload == "battery":
        for kind, func in zip(SOLVE_KINDS, ("solve_dim", "solve_adim", "solve_dim_k", "solve_bdim")):
            solve_timer.wrap_bindings(rd, f"solvers.{kind}", "solvers", func, only=("verify",))

    signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    hard_end = T0 + HARD_LIMIT_S
    runner = Runner(workload, workload.expected, hard_end)
    tracer = spans.Tracer()
    passes = []
    op_times, solve_times, traced_times = Samples(), Samples(), Samples()
    while not passes or perf_counter() - start < args.seconds:
        for traced in (False, True) if args.trace else (False,):
            # Collect the previous pass's garbage outside the timed calls.
            gc.collect()
            solve_timer.clear()
            # Suites run for up to a second; untraced passes sample the
            # host's speed between their solves too.
            solve_timer.before_call = None if traced else runner.speed.sample_if_due
            if traced:
                tracer.wrap_layers(rd)
            # Untraced runs end on time, in the middle of a pass if need be;
            # traced runs keep whole passes, which the tracing overhead
            # compares.
            stop_at = start + args.seconds if passes and not args.trace else float("inf")
            try:
                p = runner.run_pass(traced, stop_at)
            finally:
                tracer.restore()
            if traced:
                traced_times.add(p["ops"], runner.speed)
            else:
                if args.workload == "battery":
                    # The battery's solver calls repeat in the same order each pass.
                    solves = [(i,) + span for i, span in enumerate(solve_timer.solve_spans())]
                else:
                    solves = [rec for rec in p["ops"] if rec[1] in SOLVE_KINDS]
                op_times.add(p["ops"], runner.speed)
                solve_times.add(solves, runner.speed)
            passes.append(p)
        if perf_counter() > hard_end:
            break
    solve_timer.restore()

    if args.trace:
        overhead_s = traced_times.wall() - op_times.wall()
        values = per_layer(rd, tracer, setup_tracer, [p for p in passes if p["traced"]], overhead_s)
    else:
        values = end_to_end(op_times, solve_times, measure_setup(args))
    missing = sorted(set(declared) - set(values))
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in declared.items()}

    env = environment(args.seed, workload.variant)
    failed = len(runner.failures)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "environment": env,
        "passes": len(passes),
        "attempted": runner.attempted,
        "failed": failed,
        "failures": runner.failures,
        "outputs_sha256": hashlib.sha256(
            json.dumps(sorted(runner.outputs.items())).encode()
        ).hexdigest(),
        "pass_wall_s": [(p["traced"], p["wall_s"]) for p in passes],
        "reference_loop_s": {
            "nominal": NOMINAL_REF_S,
            "samples": len(runner.speed.took),
            "median": statistics.median(runner.speed.took),
            "min": min(runner.speed.took),
            "max": max(runner.speed.took),
        },
        "metrics": metrics,
    }
    name = args.workload + ("-tiny" if args.tiny else "")
    (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    if args.trace:
        # One spans file per workload, overwritten by each traced run: a
        # battery run records about 150k spans per pass.
        tracer.write_csv(OUT / f"spans-{name}.csv", start)

    for f in runner.failures[:5]:
        print(f"FAILED {f['op']}: {f['reason'].strip()}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} (variant {workload.variant}), "
          f"trace {args.trace}: {len(passes)} passes, {runner.attempted} calls")
    print(f"  {'failed_frac':<28} {failed / runner.attempted:.6g}")
    ref = record["reference_loop_s"]
    print(f"  reference loop: median {1000 * ref['median']:.3f} ms over {ref['samples']} samples "
          f"(min {1000 * ref['min']:.3f}, max {1000 * ref['max']:.3f}; nominal {1000 * NOMINAL_REF_S:g} ms)")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  ({values['_solves']} solves; percentiles over {values['_timings']} times, "
              f"{values['_beyond_p99']} beyond p99)")
    print(f"  outputs sha256 {record['outputs_sha256']}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
