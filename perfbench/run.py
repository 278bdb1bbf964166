#!/usr/bin/env python3
"""Benchmark for ahodge: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

The client calls `ahodge.cli.run(RunConfig(source, params,
report_format="json"))` in process for each case of the workload's seeded
case list, one report after another, and checks every report against
known_answers.json.  It repeats whole passes over the list for about
--seconds.  With --trace 0 it prints the end-to-end metrics; with --trace 1
it alternates untraced and traced passes and prints the per-layer metrics
of the traced ones (see tracer.py).  The last line of standard output is
one JSON object {correct, attempted, failed, metrics}; details, per-case
rows and the spans go to perfbench/out/.  A wrong report gives exit code
1 after the result line; any other failure exits non-zero without one.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import answers
import speed
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 11
SETUP_PACKAGES = ("ahodge", "mpmath")  # ahodge and its dependency
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

def import_cli():
    """ahodge.cli from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import ahodge.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ahodge from {SRC}: {exc}")
    found = Path(ahodge.cli.__file__).resolve().parent.parent
    if found != SRC.resolve():
        raise SystemExit(f"perfbench: imported ahodge from {found}, not {SRC}")
    return ahodge.cli


def source_path(case: workloads.Case) -> str:
    if case.source.startswith("builtin:"):
        return case.source
    return str(ROOT / case.source)


def measure_setup(repeats: int = SETUP_REPEATS) -> list:
    """Calibrated time of `import ahodge` plus a first load of the `fls`
    manifest, `repeats` times in this process.  Before each import the
    modules of SETUP_PACKAGES leave sys.modules; the originals return at
    the end, so the client keeps the ahodge it has."""

    def ours(name: str) -> bool:
        return name.split(".")[0] in SETUP_PACKAGES

    originals = {name: module for name, module in sys.modules.items() if ours(name)}
    times = []
    try:
        for _ in range(repeats):
            for name in [n for n in sys.modules if ours(n)]:
                del sys.modules[name]
            with speed.SpeedProbe() as timing:
                importlib.import_module("ahodge").get_builtin("fls")
            times.append(timing.net * timing.factor)
    finally:
        for name in [n for n in sys.modules if ours(n)]:
            del sys.modules[name]
        sys.modules.update(originals)
    return times


class Client:
    """Runs reports one at a time and grades each against the sheet."""

    def __init__(self, cli, cases: list, sheet: dict):
        self.cli = cli
        self.cases = cases
        self.sheet = sheet
        self.reports = 0
        self.tracer: tracing.Tracer | None = None

    def report(self, index: int) -> dict:
        case = self.cases[index]
        config = self.cli.RunConfig(source_path(case), dict(case.params), report_format="json")
        row = {"id": self.reports, "case": index}
        on_sample = None
        if self.tracer is not None:
            self.tracer.case = self.reports
            on_sample = self.tracer.add_probe
        self.reports += 1
        error = None
        with speed.SpeedProbe(on_sample) as timing:
            try:
                text, _code = self.cli.run(config)
            except Exception as exc:  # a crash is a failed report; keep measuring
                error = exc
        row.update(raw_ms=1000 * timing.raw, ms=1000 * timing.net * timing.factor, factor=timing.factor)
        if error is not None:
            return {**row, "outcome": "error", "detail": repr(error)}
        report = json.loads(text)
        wrong = answers.check_report(report, case.expect, case.k, self.sheet)
        if wrong:
            outcome = "wrong"
        elif report["status"] == answers.EXACT:
            outcome = "exact"
        else:
            outcome = "undetermined"
        undetermined = sum(
            s != answers.EXACT for theory in answers.THEORIES for s in report["space_status"][theory].values()
        )
        return {**row, "outcome": outcome, "detail": wrong, "undetermined": undetermined}

    def run_pass(self) -> dict:
        """One pass over the case list; its time is the sum of the
        calibrated report times."""
        start = perf_counter()
        rows = [self.report(i) for i in range(len(self.cases))]
        return {
            "seconds": sum(r["ms"] for r in rows) / 1000,
            "raw_seconds": sum(r["raw_ms"] for r in rows) / 1000,
            "wall": perf_counter() - start,
            "rows": rows,
        }


def tail(samples: list) -> tuple:
    """(value, percentile): the highest nearest-rank percentile that still
    has TAIL_BEYOND samples above it, or the maximum when there are fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def case_rows(cases: list, passes: list) -> list:
    rows = []
    for i, case in enumerate(cases):
        mine = [r for p in passes for r in p["rows"] if r["case"] == i]
        ms = [r["ms"] for r in mine]
        rows.append(
            {
                "case": i,
                **case.to_json(),
                "n": len(ms),
                "report_ms_median": statistics.median(ms),
                "report_ms_min": min(ms),
                "report_ms_max": max(ms),
                "outcomes": sorted({r["outcome"] for r in mine}),
            }
        )
    return rows


def grade(passes: list) -> dict:
    rows = [r for p in passes for r in p["rows"]]
    count = {k: sum(r["outcome"] == k for r in rows) for k in ("exact", "undetermined", "error", "wrong")}
    return {
        "attempted": len(rows),
        **count,
        "failed": count["error"] + count["wrong"],
        "fail_ratio": 1 - count["exact"] / len(rows),
        "wrong_reports": count["wrong"],
        "mismatches": [r for r in rows if r["outcome"] in ("wrong", "error")][:20],
    }


def measure(client: Client, seconds: float) -> list:
    """Whole passes until the next one would end well past the deadline."""
    deadline = perf_counter() + seconds
    passes = [client.run_pass()]
    while perf_counter() + passes[-1]["wall"] / 2 < deadline:
        passes.append(client.run_pass())
    return passes


def end_to_end(client: Client, cases: list, seconds: float) -> tuple:
    client.report(0)  # warm-up, not timed
    passes = measure(client, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = measure_setup()  # after the reading above: the repeats leave module copies behind
    ms = [r["ms"] for p in passes for r in p["rows"]]
    tail_ms, tail_level = tail(ms)
    graded = grade(passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.median(p["seconds"] for p in passes), "s"),
        "report_ms.p50": (statistics.median(ms), "ms"),
        "report_ms.tail": (tail_ms, "ms"),
        "exact_ratio": (1 - graded["fail_ratio"], "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    detail = {
        "setup_s_samples": setup,
        "pass_s_samples": [p["seconds"] for p in passes],
        "raw_pass_s_samples": [p["raw_seconds"] for p in passes],
        "report_samples": len(ms),
        "tail_percentile": tail_level,
        "grade": graded,
        "rows": case_rows(cases, passes),
    }
    return metrics, detail, graded


def per_layer(client: Client, cases: list, seconds: float, spans_path: Path) -> tuple:
    tracer = tracing.Tracer()
    client.report(0)  # warm-up, not timed
    deadline = perf_counter() + seconds
    untraced, traced, layers = [], [], []
    while not traced or perf_counter() + (untraced[-1]["wall"] + traced[-1]["wall"]) / 2 < deadline:
        untraced.append(client.run_pass())
        tracer.install()
        client.tracer = tracer
        lo, probe_lo = tracer.begin_pass()
        try:
            traced.append(client.run_pass())
        finally:
            tracer.uninstall()
            client.tracer = None
        scale = {r["id"]: r["factor"] for r in traced[-1]["rows"]}
        summary = tracing.pass_layers(tracer.spans, lo, tracer.probes[probe_lo:], scale)
        undetermined = sum(r["undetermined"] for r in traced[-1]["rows"] if "undetermined" in r)
        summary["metrics"] = tracing.layer_metrics(summary, tracer.counts, tracer.dbar_keys, undetermined)
        summary["report_s"] = sum(r["ms"] for r in traced[-1]["rows"]) / 1000
        layers.append(summary)
    names = layers[0]["metrics"]
    metrics = {name: statistics.median(s["metrics"][name] for s in layers) for name in names}
    overhead = statistics.median(p["seconds"] for p in traced) / statistics.median(p["seconds"] for p in untraced)
    metrics["trace.overhead"] = overhead
    # Self times of every layer plus cli.other_ms must add up to the traced report time.
    accounted = [sum(s["self"].values()) for s in layers]
    roots = [s["root"] for s in layers]
    accounting_ok = all(abs(a - r) <= 1e-9 * max(r, 1e-9) + 1e-12 for a, r in zip(accounted, roots))
    graded = grade(untraced + traced)
    detail = {
        "untraced_pass_s": [p["seconds"] for p in untraced],
        "traced_pass_s": [p["seconds"] for p in traced],
        "accounting": [
            {"self_plus_other_s": a, "traced_report_s": r, "client_report_s": s["report_s"]}
            for a, r, s in zip(accounted, roots, layers)
        ],
        "accounting_ok": accounting_ok,
        "layers": [{k: s[k] for k in ("busy", "self", "calls")} for s in layers],
        "grade": graded,
    }
    spans = {
        "span_fields": ["name", "start", "end", "parent", "case", "nested"],
        "spans": tracer.spans,
        "probe_fields": ["start", "end", "parent", "case"],
        "probes": tracer.probes,
    }
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        json.dump(spans, fh)
    return {k: (v, unit_of(k)) for k, v in metrics.items()}, detail, graded


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name == "trace.overhead":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    cases = workloads.WORKLOADS[args.workload](args.seed)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "cases": [c.to_json() for c in cases]}))
    client = Client(cli, cases, answers.load_sheet())
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, detail, graded = per_layer(client, cases, args.seconds, OUT / f"{stem}-spans.json.gz")
        ok = detail["accounting_ok"]
        for a in detail["accounting"]:
            print(
                "trace accounting: self times + cli.other_ms = {:.3f} s of {:.3f} s traced report time"
                " ({:.3f} s at the client)".format(a["self_plus_other_s"], a["traced_report_s"], a["client_report_s"])
            )
    else:
        metrics, detail, graded = end_to_end(client, cases, args.seconds)
        ok = True
        print(f"{'case':>4}  {'n':>3}  {'report_ms':>10}  {'outcome':<14} source params")
        for row in detail["rows"]:
            params = ",".join(f"{k}={v}" for k, v in row["params"].items())
            outcome = "/".join(row["outcomes"])
            print(f"{row['case']:>4}  {row['n']:>3}  {row['report_ms_median']:>10.1f}  {outcome:<14} {row['source']} {params}")
        print(
            "samples: {} reports, {} passes; tail = p{:.1f}; fail_ratio = {:.4f}; wrong_reports = {}".format(
                detail["report_samples"],
                len(detail["pass_s_samples"]),
                detail["tail_percentile"],
                graded["fail_ratio"],
                graded["wrong_reports"],
            )
        )
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds, cases=[c.to_json() for c in cases])
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n", encoding="utf-8")

    correct = graded["wrong_reports"] == 0 and ok
    result = {
        "correct": correct,
        "attempted": graded["attempted"],
        "failed": graded["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
