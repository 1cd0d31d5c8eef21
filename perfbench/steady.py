"""Steadiness self-check: repeat one workload and read the spread.

Usage::

    python3 perfbench/steady.py --workload stream --runs 10 [--first-seed 1]
    python3 perfbench/steady.py --workload stream --read runs.jsonl
    python3 perfbench/steady.py --workload stream --read first.jsonl second.jsonl

Runs ``run.py`` ``--runs`` times, one seed after another, and prints for
every end-to-end metric its median, quartiles and spread
(IQR / median, quartiles as ``statistics.quantiles(values, n=4)`` gives
them) next to the metric's bound from ``BENCHMARK.json``.  A metric
whose spread exceeds its bound is flagged UNRESOLVED: a difference
smaller than that spread cannot be told from noise.

Each run's result line is appended to ``--save`` (JSON lines), and
``--read`` prints the table for saved lines without running anything.
Given two files, it also compares the sets' medians: a metric whose
second median is worse than the first by more than its bound is
flagged WORSE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread_table(results: list[dict], bounds: dict[str, float]) -> list[str]:
    if len(results) < 2:
        return [f"runs={len(results)}: quartiles need at least 2 runs"]
    lines = [f"{'metric':18s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
             f"{'spread':>8s} {'bound':>6s}"]
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        flag = ""
        if spread > bound:
            flag = "UNRESOLVED"
        elif spread > bound / 3:
            flag = "over a third of bound"
        lines.append(f"{name:18s} {median:14.6f} {q1:14.6f} {q3:14.6f} "
                     f"{spread:8.4f} {bound:6.3f} {flag}")
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    lines.append(f"runs={len(results)} ops failed={failed}/{attempted}")
    return lines


def compare_table(first: list[dict], second: list[dict],
                  spec: dict) -> list[str]:
    """Second set's median against the first's, per metric."""
    lines = [f"{'metric':18s} {'median 1':>14s} {'median 2':>14s} "
             f"{'worse by':>8s} {'bound':>6s}"]
    for m in spec["end_to_end"]:
        name = m["name"]
        a, b = (statistics.median(r["metrics"][name]["value"] for r in rs)
                for rs in (first, second))
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        flag = "WORSE" if worse > m["bound"] else ""
        lines.append(f"{name:18s} {a:14.6f} {b:14.6f} {worse:8.4f} "
                     f"{m['bound']:6.3f} {flag}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--read", type=Path, nargs="+")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.read:
        sets = [[json.loads(line) for line in path.read_text().splitlines()
                 if line.strip()] for path in args.read]
        for path, results in zip(args.read, sets):
            print(f"workload {args.workload}, {path.name}")
            print("\n".join(spread_table(results, bounds)))
        if len(sets) == 2:
            print("\n".join(compare_table(*sets, spec)))
        return 0
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}",
                  file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        results.append(json.loads(line))
        if args.save:
            with args.save.open("a") as fh:
                fh.write(line + "\n")
        # The run's host reference loop, to tell a slow host from a
        # slow change (diagnostic only).
        stamp = next((json.loads(out[4:]) for out in proc.stdout.splitlines()
                      if out.startswith("env ")), {})
        print(f"seed {seed}: host_ref_loop_s={stamp.get('host_ref_loop_s')} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in results[-1]["metrics"].items()),
              file=sys.stderr)
    print(f"workload {args.workload}")
    print("\n".join(spread_table(results, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
