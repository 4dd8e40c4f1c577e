"""Run-to-run spread of the end-to-end metrics, as the benchmark's bounds
are checked: one run per seed, then per metric the distance between the
first and third quartile of the runs as a share of their median.

    python3 perfbench/spread.py --workload tune --seeds 1-10

Prints one line per run as it ends, then a table of median, spread and the
metric's bound from BENCHMARK.json (a spread over a third of the bound is
flagged). Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from arith import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(bench["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *cmd[1:]], cwd=ROOT, capture_output=True, text=True)
        took = time.perf_counter() - start
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name in bounds:
            runs[name].append(result["metrics"][name]["value"])
        values = " ".join(f"{name}={runs[name][-1]:.4g}" for name in bounds)
        print(f"seed {seed}: correct={result['correct']} took {took:.1f}s {values}", flush=True)
    print(f"{'metric':20s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, values in runs.items():
        spread = quartile_spread(values)
        flag = "" if spread < bounds[name] / 3 else "  over a third of the bound"
        print(f"{name:20s} {statistics.median(values):12.5g} {spread:8.4f} {bounds[name]:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
