"""The benchmark's own self-check.

    python3 bench/selfcheck.py

1. Tiny-input runs of every workload, plain and traced, each print every
   metric BENCHMARK.json names, with its unit, and fail no call.
2. Tracing leaves every output unchanged: the plain and traced runs of a
   workload produce the same outputs digest.
3. A second seed gives a cli-batch mix in the same difficulty band as the
   default: the same request counts per (parameter, order, graph kind),
   and pinned candidate totals, total cost and p99 cost within 10% of each
   other.
4. Run from a directory holding only BENCHMARK.json and bench/, the
   benchmark exits nonzero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter

import run
import workloads

BAND = 0.10


def bench(args: list[str], cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py"] + args, cwd=cwd, capture_output=True, text=True, timeout=300
    )


def check_tiny_runs(spec: dict) -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        digests = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(["--workload", workload, "--seed", "0", "--seconds", "0",
                          "--trace", str(trace), "--tiny"])
            label = f"{workload} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} calls failed")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
            stem = f"{workload}-tiny-seed0-trace{trace}"
            record = json.loads((run.OUT / f"result-{stem}.json").read_text())
            digests[trace] = record["outputs_sha256"]
        if len(set(digests.values())) > 1:
            problems.append(f"{workload}: traced outputs differ from plain outputs")
    return problems


def check_cli_band() -> list[str]:
    pins = json.loads((run.HERE / "expected.json").read_text())
    mixes = {}
    for seed in (0, 1):
        chosen = workloads.cli_selection(seed, pins["cli-batch-cost-ms"])
        mixes[seed] = {
            "cells": Counter((r.param, r.n, r.kind) for r in chosen),
            "ids": {r.id for r in chosen},
            "candidates": sum(pins["cli-batch"][r.id][2] for r in chosen),
            "cost_ms": sum(pins["cli-batch-cost-ms"][r.id] for r in chosen),
            "p99_cost_ms": run.quantile([pins["cli-batch-cost-ms"][r.id] for r in chosen], 99),
        }
    problems = []
    if mixes[0]["cells"] != mixes[1]["cells"]:
        problems.append("cli-batch: seeds 0 and 1 give different request counts per cell")
    if mixes[0]["ids"] == mixes[1]["ids"]:
        problems.append("cli-batch: seeds 0 and 1 draw the same requests")
    for key in ("candidates", "cost_ms", "p99_cost_ms"):
        low, high = sorted((mixes[0][key], mixes[1][key]))
        if high > (1 + BAND) * low:
            problems.append(f"cli-batch: {key} {mixes[0][key]:.6g} and {mixes[1][key]:.6g} differ by over {BAND:.0%}")
    return problems


def check_bare_directory() -> list[str]:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(["--workload", "ladder", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: the benchmark did not fail without the program"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.OUT.mkdir(exist_ok=True)
    problems = check_tiny_runs(spec) + check_cli_band() + check_bare_directory()
    for p in problems:
        print(f"FAIL {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
