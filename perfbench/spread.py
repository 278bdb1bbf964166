#!/usr/bin/env python3
"""Run the benchmark once per seed and print each metric's median and its
spread: the distance between the first and third quartiles as a share of
the median (statistics.quantiles, n=4), next to the bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload lattice --seeds 1-10 [--trace 0]

Runs are sequential, so they do not compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict = {}
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:<36} median {median:>12.6g}  spread {spread:7.4f}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
