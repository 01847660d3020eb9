"""Regenerate expected.json: the output of every instance any seed can
draw, computed by the resolvedim in this checkout.

    python3 bench/pin.py [workload ...]

With workload names, only their pins are regenerated and the rest of
expected.json is kept. Run it only on code whose answers are known to be right (the pins were
taken from the unchanged seed solvers); a benchmark run compares every
call against these pins. It also records each cli-batch request's time,
which only orders the request pool into pairs of near-equal cost.
"""

import json
import sys
import time

import run
import workloads


def outputs(ops, table=None) -> dict:
    """Run each op not yet in ``table`` and record its output there."""
    table = {} if table is None else table
    for op in ops:
        if op.id not in table:
            table[op.id] = op.output(op.call())
            print(f"  {op.id}: {table[op.id]}", file=sys.stderr, flush=True)
    return table


def costs(ops, passes: int = 3) -> dict:
    """Each op's fastest time in milliseconds over several passes."""
    best = {}
    for _ in range(passes):
        for op in ops:
            start = time.perf_counter()
            op.call()
            elapsed = 1000 * (time.perf_counter() - start)
            best[op.id] = round(min(best.get(op.id, elapsed), elapsed), 2)
    return best


def main() -> int:
    only = set(sys.argv[1:]) or set(run.WORKLOADS)
    unknown = only - set(run.WORKLOADS)
    if unknown:
        sys.exit(f"error: unknown workloads {sorted(unknown)}")
    rd = run.import_program()
    path = run.HERE / "expected.json"
    pins = json.loads(path.read_text()) if path.is_file() else {}
    # cli-batch first: its costs are timed, and the battery runs below
    # leave a large heap behind that slows later calls.
    if "cli-batch" in only:
        pool = workloads.cli_ops(rd, workloads.cli_pool())
        pins["cli-batch"] = outputs(pool)
        pins["cli-batch-cost-ms"] = costs(pool)
    for name in ("ladder", "battery"):
        if name not in only:
            continue
        for tiny in (False, True):
            table = {}
            for v in range(workloads.VARIANTS):
                ops = workloads.Workload(name, rd, v, tiny, {}).ops()
                if name == "ladder":
                    outputs(ops, table)
                else:
                    table[str(workloads.BATTERY_SEEDS[v])] = outputs(ops)
            pins[name + ("-tiny" if tiny else "")] = table
    write(pins)
    return 0


def write(pins: dict) -> None:
    """One line per pinned output, so a re-pin diffs line by line."""
    lines = ["{"]
    for i, (key, table) in enumerate(sorted(pins.items())):
        lines.append(f" {json.dumps(key)}: {{")
        items = sorted(table.items())
        for j, (op_id, out) in enumerate(items):
            comma = "," if j < len(items) - 1 else ""
            lines.append(f"  {json.dumps(op_id)}: {json.dumps(out)}{comma}")
        lines.append(" }" + ("," if i < len(pins) - 1 else ""))
    lines.append("}")
    (run.HERE / "expected.json").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.exit(main())
