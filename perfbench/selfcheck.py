#!/usr/bin/env python3
"""Fast self-check of the benchmark itself (a few seconds).

    python3 perfbench/selfcheck.py

It confirms that
- the generators are deterministic, vary with the seed, and write each
  parameter so that ahodge parses it to the intended value;
- a short untraced and a short traced run emit exactly the metrics of
  BENCHMARK.json, each with its unit;
- the known-answer gate holds on true reports and trips when one known
  answer, or the lattice index k, is altered.
Exit code 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction

import answers
import run
import workloads

QUICK = [workloads.Case("builtin:iwasawa_std", {}, "iwasawa_std"), workloads.TABLES[0]]


def expected_value(value: workloads.PiAffine):
    from ahodge.scalars import Scalar

    r1 = Scalar.rational(value.r1.numerator, value.r1.denominator)
    r0 = Scalar.rational(value.r0.numerator, value.r0.denominator)
    pi = Scalar.pi_power(1)
    return r1 * (pi if value.e == 1 else pi.inv()) + r0


def check_generators(failures: list) -> None:
    from ahodge.scalars import parse_scalar

    for name, make in workloads.WORKLOADS.items():
        first = [c.to_json() for c in make(7)]
        if first != [c.to_json() for c in make(7)]:
            failures.append(f"{name}: seed 7 gives two different case lists")
        if name != "tables" and first == [c.to_json() for c in make(8)]:
            failures.append(f"{name}: seeds 7 and 8 give the same case list")
    samples = [
        workloads.PiAffine(Fraction(-3, 2), Fraction(1, 2), -1),
        workloads.PiAffine(Fraction(2), Fraction(-2), 1),
        workloads.PiAffine(Fraction(1), Fraction(0), -1),
        workloads.PiAffine(Fraction(-400), Fraction(0), 1),
        workloads.PiAffine.rational(Fraction(-1, 2)),
    ]
    for value in samples:
        if parse_scalar(value.text()) != expected_value(value):
            failures.append(f"{value} renders as {value.text()!r}, which parses to another value")
    if samples[3].lattice_k() != -100 or samples[1].lattice_k() is not None:
        failures.append("lattice_k misreads the branch of c")
    lattice = workloads.lattice(3)
    if sum(c.k >= workloads.LARGE_K[0] for c in lattice) != 1:
        failures.append("lattice: not exactly one large-k draw per pass")
    if any(c.expect != "fls_generic" for c in workloads.pi_generic(3)):
        failures.append("pi_generic: a case is not on the generic branch")
    mode = answers.parse_mode("e^{2 pi i (-100*x + t)}*(phi^{12} + phi^{13})", ["x", "t"])
    if mode != (-100, 1):
        failures.append(f"parse_mode read {mode}")


def check_metrics(cli, spec: dict, failures: list) -> None:
    sheet = answers.load_sheet()
    e2e, _, graded = run.end_to_end(run.Client(cli, QUICK, sheet), QUICK, 0)
    run.OUT.mkdir(exist_ok=True)
    layers, traced, traced_grade = run.per_layer(
        run.Client(cli, QUICK, sheet), QUICK, 0, run.OUT / "selfcheck-spans.json.gz"
    )
    for label, got, want in (("end_to_end", e2e, spec["end_to_end"]), ("per_layer", layers, spec["per_layer"])):
        emitted = {name: unit for name, (_, unit) in got.items()}
        declared = {m["name"]: m["unit"] for m in want}
        if emitted != declared:
            failures.append(f"{label}: emitted {sorted(emitted.items())} != declared {sorted(declared.items())}")
    if graded["wrong_reports"] or traced_grade["wrong_reports"] or not traced["accounting_ok"]:
        failures.append("the quick runs were not correct")


def check_gate(cli, failures: list) -> None:
    sheet = answers.load_sheet()
    altered = copy.deepcopy(sheet)
    altered["iwasawa_std"]["dbar"][1] += 1
    for label, use, want in (("true sheet", sheet, 0), ("altered sheet", altered, 1)):
        graded = run.grade([run.Client(cli, QUICK, use).run_pass()])
        if graded["wrong_reports"] != want:
            failures.append(f"{label}: wrong_reports = {graded['wrong_reports']}, expected {want}")
    lattice = workloads.TABLES[1]
    text, _ = cli.run(cli.RunConfig(lattice.source, dict(lattice.params), report_format="json"))
    report = json.loads(text)
    if answers.check_report(report, lattice.expect, lattice.k, sheet):
        failures.append("the fls c=4*pi report disagrees with the sheet")
    if not answers.check_report(report, lattice.expect, lattice.k + 1, sheet):
        failures.append("lattice modes (+-(k+1), 0) were accepted for k")


def main() -> int:
    cli = run.import_cli()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list = []
    check_generators(failures)
    check_metrics(cli, spec, failures)
    check_gate(cli, failures)
    for failure in failures:
        print("FAIL", failure)
    print("selfcheck:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
