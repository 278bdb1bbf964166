#!/usr/bin/env python3
"""Alternating benchmark runs of a parent revision and this checkout, with
quartiles, paired ratios and wins per metric.

    python3 scripts/bench_pairs.py --parent HEAD~1 --seeds 1-10 --seconds 6 --out BENCH.json

The parent revision is exported with ``git archive`` into a temporary
directory, so the repository gains no worktree, even when a run is cut
short.  The other side is this checkout as it is on disk.  For each
workload and each seed of ``--seeds``, ``perfbench/run.py --trace 0``
runs once on each side, in turn: the parent first on odd seeds and this
checkout first on even ones, so a drift of the machine's speed weighs on
both sides alike.  One traced run per side, at seed TRACE_SEED, adds the
per-layer metrics.

Per metric the summary gives q1, median and q3 on each side
(``statistics.quantiles``, n=4), the median of the paired ratios change /
parent, the pairs the change won in the direction BENCHMARK.json names,
and, for a metric with a bound, whether that median ratio stays inside it.
Every run must grade its reports correct, or the script exits 1.  The
result is printed as JSON and, with ``--out``, stored in that file under
the label ``pairs``; other labels already in the file are kept.  The
script reads perfbench/ and BENCHMARK.json and changes neither.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LABEL = "pairs"
TRACE_SEED = 40

sys.path.append(str(ROOT / "perfbench"))
from spread import seeds_of  # noqa: E402


def quartiles(values: list) -> dict:
    """q1, median and q3 of ``values``; one value is all three."""
    if len(values) < 2:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def summarize(parent: list, change: list, spec: dict) -> dict:
    """metric -> its summary over the pairs (parent[i], change[i]), each a
    dict {metric: value} of one run; ``spec`` is BENCHMARK.json."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    out = {}
    for name in parent[0]:
        before = [run[name] for run in parent]
        after = [run[name] for run in change]
        ratios = [b / a for a, b in zip(before, after) if a]
        entry = {"parent": quartiles(before), "change": quartiles(after), "pairs": len(before)}
        entry["median_ratio"] = statistics.median(ratios) if ratios else None
        metric = declared.get(name, {})
        lower = metric.get("better") == "lower"
        if "better" in metric:
            entry["wins"] = sum(b < a if lower else b > a for a, b in zip(before, after))
        if metric.get("bound") is not None and ratios:
            bound = metric["bound"]
            ratio = entry["median_ratio"]
            entry["bound"] = bound
            entry["within_bound"] = ratio <= 1 + bound if lower else ratio >= 1 - bound
        out[name] = entry
    return out


def export(rev: str, into: Path) -> str:
    """Write the files of ``rev`` under ``into``; returns its commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # the "data" filter, where this Python has it, refuses links out of ``into``
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return commit


def run(command: list, tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """{metric: value} of one benchmark run in ``tree``; exits on a failed run."""
    cmd = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
    if result is None or not result["correct"]:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} failed (exit {done.returncode})\n{done.stderr}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--seeds", default="1-10", help="seed range lo-hi, one pair per seed")
    parser.add_argument("--seconds", type=float, default=6.0, help="--seconds of each run")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path, help="JSON file to store the result in")
    args = parser.parse_args(argv)
    seeds = seeds_of(args.seeds)
    if not seeds or args.seconds <= 0:
        parser.error("need at least one pair and positive --seconds")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree = Path(tmp) / "parent"
        sides = {"parent": parent_tree, "change": ROOT}
        result = {
            "parent": export(args.parent, parent_tree),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "seconds": args.seconds,
            "seeds": seeds,
            "trace_seed": TRACE_SEED,
            "workloads": {},
        }
        for workload in args.workloads.split(","):
            runs: dict = {"parent": [], "change": []}
            for seed in seeds:
                for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                    runs[side].append(run(spec["command"], sides[side], workload, seed, args.seconds, 0))
                print(f"{workload} seed {seed}: pass_s {runs['parent'][-1]['pass_s']:.5f} -> "
                      f"{runs['change'][-1]['pass_s']:.5f}", file=sys.stderr, flush=True)
            traced = {side: run(spec["command"], tree, workload, TRACE_SEED, args.seconds, 1)
                      for side, tree in sides.items()}
            result["workloads"][workload] = {
                "end_to_end": summarize(runs["parent"], runs["change"], spec),
                "traced": traced,
            }
    print(json.dumps(result, indent=2))
    if args.out is not None:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[LABEL] = result
        args.out.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
