"""Command line interface: manifest ingestion, orchestration, reports.

``ahodge run`` validates a manifold, computes the structural flags, the
three (p,0) tables with explicit bases, and the symplectic obstruction
verdict, then emits a deterministic text or JSON report.  Exit code 0 means
every space was computed exactly, 2 means something came back UNDETERMINED,
1 means bad input (a usage error, an unreadable or invalid manifest), and 3
means an internal error, reported as ``internal error: <type>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import fourier, hermitian, obstruction
from .builtins import builtin_names, get_builtin
from .fourier import EXACT, UNDETERMINED, HarmonicReport
from .manifold import D2_RELATIONS, ManifoldSpec, load_spec
from .scalars import format_scalar


@dataclass
class RunConfig:
    source: str
    overrides: dict = field(default_factory=dict)
    degrees: list | None = None
    report_format: str = "text"
    modes_bound: int = fourier.MODES_BOUND  # bits of a root bound

    def __post_init__(self):
        if self.degrees is not None and not self.degrees:
            raise ValueError("degrees must name at least one degree")
        if self.modes_bound < 0:
            raise ValueError(
                f"modes bound must be a nonnegative number of bits, got {self.modes_bound}"
            )


def _load_source(source: str, overrides: dict) -> ManifoldSpec:
    if source.startswith("builtin:"):
        return get_builtin(source[len("builtin:") :], overrides)
    text = Path(source).read_text(encoding="utf-8")
    return load_spec(text, overrides)


THEORIES = ("dbar", "deltabar", "dol")


def compute_report(config: RunConfig) -> HarmonicReport:
    spec = _load_source(config.source, config.overrides)
    h = hermitian.metric_for(spec)
    ak = h.is_almost_kahler
    laplacians_equal = hermitian.delta_laplacians_equal(h, spec)
    flags = {
        "d2_zero": True,  # loading certifies d^2 = 0, hence all seven relations
        "d2_relations_hold": True,
        "integrable": spec.is_integrable(),
        "almost_kahler": ak,
        "delta_laplacians_equal": laplacians_equal,
        "ak_identity": laplacians_equal if ak else None,
    }
    degrees = range(spec.n + 1) if config.degrees is None else config.degrees
    degrees = list(dict.fromkeys(degrees))  # a repeated degree is computed once
    spaces = {}
    cap = config.modes_bound
    for p in degrees:
        # one dbar space per degree, shared by both filters
        dbar = spaces[("dbar", p)] = fourier.harmonic_basis_dbar(p, spec, cap)
        spaces[("deltabar", p)] = fourier.harmonic_basis_deltabar(dbar, spec, h)
        spaces[("dol", p)] = fourier.dolbeault_basis(dbar, spec)
    # the obstruction searches degree 1, computed here only when --p left it out
    dbar1 = spaces.get(("dbar", 1)) or fourier.harmonic_basis_dbar(1, spec, cap)
    verdict = obstruction.symplectic_obstruction(spec, dbar1)
    params = {k: format_scalar(v) for k, v in sorted(spec.params.items())}
    return HarmonicReport(
        spec=spec,
        params=params,
        degrees=degrees,
        spaces=spaces,
        flags=flags,
        obstruction=verdict,
    )


def report_to_dict(report: HarmonicReport) -> dict:
    spec = report.spec
    tables = {}
    bases = {}
    statuses = {}
    for theory in THEORIES:
        tables[theory] = {}
        bases[theory] = {}
        statuses[theory] = {}
        for p in report.degrees:
            space = report.spaces[(theory, p)]
            tables[theory][str(p)] = space.dimension
            statuses[theory][str(p)] = space.status
            bases[theory][str(p)] = [
                mf.pretty(spec.symbol, spec.fibration.coords) for mf in space.basis or ()
            ]
    verdict = report.obstruction
    obstruction_out = {
        "verdict": verdict.verdict,
        "rule": verdict.rule,
        "witness": (
            verdict.witness.pretty(spec.symbol, spec.fibration.coords)
            if verdict.witness is not None
            else None
        ),
    }
    return {
        "manifold": {"name": spec.name, "params": report.params},
        "flags": report.flags,
        "tables": tables,
        "bases": bases,
        "space_status": statuses,
        "obstruction": obstruction_out,
        "status": report.status,
    }


def report_to_text(report: HarmonicReport) -> str:
    spec = report.spec
    lines = []
    params = ", ".join(f"{k} = {v}" for k, v in report.params.items())
    lines.append(f"manifold: {spec.name}" + (f"  ({params})" if params else ""))
    lines.append("validation: d^2 = 0 ok; bidegree relations ok")
    f = report.flags
    ak_text = "n/a" if f["ak_identity"] is None else str(f["ak_identity"]).lower()
    lines.append(
        "flags: integrable = {}; almost_kahler = {}; "
        "delta_laplacians_equal = {}; ak_identity = {}".format(
            str(f["integrable"]).lower(),
            str(f["almost_kahler"]).lower(),
            str(f["delta_laplacians_equal"]).lower(),
            ak_text,
        )
    )
    lines.append("h^(p,0) table:")
    lines.append("  p | dbar | deltabar | dol | status")
    for p in report.degrees:
        row = []
        stat = []
        for theory in THEORIES:
            space = report.spaces[(theory, p)]
            row.append("?" if space.dimension is None else str(space.dimension))
            stat.append(space.status)
        overall = EXACT if all(s == EXACT for s in stat) else UNDETERMINED
        lines.append(
            f"  {p} | {row[0]:>4} | {row[1]:>8} | {row[2]:>3} | {overall}"
        )
    lines.append("bases:")
    for theory in THEORIES:
        for p in report.degrees:
            space = report.spaces[(theory, p)]
            if not space.basis:
                continue
            rendered = ", ".join(
                mf.pretty(spec.symbol, spec.fibration.coords) for mf in space.basis
            )
            lines.append(f"  {theory} p={p}: {rendered}")
    verdict = report.obstruction
    if verdict.witness is not None:
        lines.append(
            "obstruction: {} (rule: {}, witness: {})".format(
                verdict.verdict,
                verdict.rule,
                verdict.witness.pretty(spec.symbol, spec.fibration.coords),
            )
        )
    else:
        lines.append(f"obstruction: {verdict.verdict}")
    lines.append(f"status: {report.status}")
    return "\n".join(lines) + "\n"


def run(config: RunConfig) -> tuple[str, int]:
    """Compute the report; returns (rendered text, exit code)."""
    report = compute_report(config)
    if config.report_format == "json":
        rendered = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    else:
        rendered = report_to_text(report)
    code = 0 if report.status == EXACT else 2
    return rendered, code


def check(source: str) -> tuple[str, int]:
    """Load and validate, which certifies d^2 = 0 and with it the seven
    bidegree relations, and build the declared metric."""
    spec = _load_source(source, {})
    if spec.metric_source is not None:
        hermitian.metric_for(spec)
    lines = [f"manifold: {spec.name}", "d^2 = 0: ok"]
    lines += [f"relation {name}: ok" for name in D2_RELATIONS]
    lines.append("result: pass")
    return "\n".join(lines) + "\n", 0


def _parse_degrees(text: str):
    try:
        degrees = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        degrees = []
    if not degrees:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return degrees


def _parse_param(text: str):
    name, eq, expr = text.partition("=")
    if not (eq and name.strip().isidentifier() and expr.strip()):
        raise argparse.ArgumentTypeError(f"expected NAME=EXPR, got {text!r}")
    return name.strip(), expr


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, as other bad input does (2 means UNDETERMINED)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ahodge",
        description=(
            "Exact (p,0) harmonic-form invariants for invariant almost-complex "
            "structures on solvmanifolds. Sources are manifest paths or "
            f"builtin:NAME with NAME one of {', '.join(builtin_names())}."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="compute tables, bases, flags, obstruction")
    runp.add_argument("source")
    runp.add_argument("--a", help="override parameter a (scalar expression)")
    runp.add_argument("--b", help="override parameter b")
    runp.add_argument("--c", help="override parameter c")
    runp.add_argument(
        "--param",
        action="append",
        type=_parse_param,
        default=[],
        metavar="NAME=EXPR",
        help="override any [params] entry; repeat the flag for several",
    )
    runp.add_argument("--p", type=_parse_degrees, help="comma-separated degrees, default 0..n")
    runp.add_argument("--report", choices=("text", "json"), default="text")
    runp.add_argument(
        "--modes-bound",
        type=int,
        default=fourier.MODES_BOUND,
        metavar="BITS",
        help="cap on the bit length of the integer root bound in the mode "
        f"search; an exceeded cap gives UNDETERMINED (default {fourier.MODES_BOUND})",
    )
    checkp = sub.add_parser("check", help="validate a manifest only")
    checkp.add_argument("source")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        overrides = {key: getattr(args, key) for key in ("a", "b", "c")}
        overrides = {key: value for key, value in overrides.items() if value is not None}
        for name, expr in args.param:
            if name in overrides:
                parser.error(f"parameter {name} is overridden twice")
            overrides[name] = expr
    try:
        if args.command == "check":
            out, code = check(args.source)
        else:
            config = RunConfig(
                source=args.source,
                overrides=overrides,
                degrees=args.p,
                report_format=args.report,
                modes_bound=args.modes_bound,
            )
            out, code = run(config)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        # bad input; validation errors carry their own context
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
