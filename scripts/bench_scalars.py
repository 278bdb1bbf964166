#!/usr/bin/env python3
"""Per-operation timings of the Scalar layer on the operand shapes that the
reports spend their time on.

    python3 scripts/bench_scalars.py --seconds 10 --out BENCH.json --label after

Five shapes of Q(pi)(i) pairs are drawn with a fixed seed:

- ``gaussian``: pi-free Gaussian rationals (a + b*i)/d, as in the tables;
- ``const_over_linear``: c / (pi - r), as 1/b or 1/c at a pi-bearing point;
- ``linear_over_1``: c1*pi + c0, as a, b or c at a pi-bearing point;
- ``const_over_tau``: c/pi and c/pi^2, as 1/c at a lattice point c = 4k*pi;
- ``unit``: x one of 1, -1, i, -i and y of one of the four shapes above,
  as the signs and factors i of a wedge or a Hodge star.

Roots r and rational parts come from small pools, so some pairs share a
linear factor and some do not, as in a report.  For each shape the script
times ``x * y``, ``x + y``, ``x - y``, ``x.conj()``, ``x.inv()``, ``-x``, ``x == x'``
(x' an equal copy that shares no object with x), ``(x - x').is_zero()``
(the subtract-and-test rule for equality) and ``pgcd`` on the two
nonconstant polynomials of the pair (the constant ones for ``gaussian``).  Each cell gets an equal share
of ``--seconds``; its figure is the median over repeated passes of the
time per operation in nanoseconds.  There is no threshold: the output is a
record, not a test.

The speed of a shared machine can drift by a factor of two within seconds,
so each pass is timed between two runs of a fixed probe (squaring a small
sparse polynomial with Fraction coefficients) and scaled to a machine on
which the probe takes PROBE_NOMINAL_S.  ``x == x'`` is the same code on
every checkout so far and serves as a control.

The package is imported from this checkout's src/.  The result is printed
as JSON and, with ``--out``, stored in that file under ``--label``; other
labels already in the file are kept, so two checkouts can write one file.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ahodge.scalars import PI, QQi, Scalar, _scalar, pgcd  # noqa: E402

PAIRS = 200
SEED = 15
HALVES = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3, 7))
ROOTS = (Fraction(1, 2), Fraction(-2), Fraction(1, 3))
PROBE_NOMINAL_S = 0.00025
# nine terms, 81 Fraction products per probe
_PROBE_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(3) for j in range(3)}


def _rational(rng: random.Random) -> Fraction:
    return rng.choice(HALVES) * rng.choice((1, -1))


def _gaussian(rng: random.Random) -> Scalar:
    im = _rational(rng) if rng.random() < 0.5 else 0
    return Scalar.from_qqi(QQi(_rational(rng), im))


def _const_over_linear(rng: random.Random) -> Scalar:
    root = Scalar.from_qqi(QQi(rng.choice(ROOTS)))
    return _gaussian(rng) / (PI - root)


def _linear_over_1(rng: random.Random) -> Scalar:
    return Scalar.pi_power(1, _rational(rng)) + Scalar.from_qqi(QQi(rng.choice(ROOTS)))


def _const_over_tau(rng: random.Random) -> Scalar:
    return _gaussian(rng) / Scalar.pi_power(rng.choice((1, 2)))


UNITS = (QQi(1), QQi(-1), QQi(0, 1), QQi(0, -1))

SHAPES = {
    "gaussian": _gaussian,
    "const_over_linear": _const_over_linear,
    "linear_over_1": _linear_over_1,
    "const_over_tau": _const_over_tau,
}


def _unit_pair(rng: random.Random):
    """(+-1 or +-i, a value of one of the other shapes)."""
    return Scalar.from_qqi(rng.choice(UNITS)), rng.choice(list(SHAPES.values()))(rng)


def _copy(x: Scalar) -> Scalar:
    """An equal scalar built from fresh coefficient objects."""

    def fresh(poly):
        return tuple(QQi(Fraction(c.a, c.d), Fraction(c.b, c.d)) for c in poly)

    return _scalar(fresh(x.num), fresh(x.den))


def _poly(x: Scalar):
    """The nonconstant polynomial of x, or its numerator if it has none."""
    return x.den if len(x.den) > 1 else x.num


def operations(pairs):
    """name -> a function that applies the operation to every pair once."""
    copies = [(x, _copy(x)) for x, _ in pairs]
    polys = [(_poly(x), _poly(y)) for x, y in pairs]

    def mul():
        for x, y in pairs:
            x * y

    def add():
        for x, y in pairs:
            x + y

    def sub():
        for x, y in pairs:
            x - y

    def conj():
        for x, _ in pairs:
            x.conj()

    def inv():
        for x, _ in pairs:
            x.inv()

    def neg():
        for x, _ in pairs:
            -x

    def eq():
        for x, x2 in copies:
            x == x2

    def sub_is_zero():
        for x, x2 in copies:
            (x - x2).is_zero()

    def gcd():
        for p, q in polys:
            pgcd(p, q)

    return {
        "mul": mul,
        "add": add,
        "sub": sub,
        "conj": conj,
        "inv": inv,
        "neg": neg,
        "eq": eq,
        "sub_is_zero": sub_is_zero,
        "pgcd": gcd,
    }


def probe() -> float:
    """Seconds taken to square _PROBE_POLY."""
    start = perf_counter()
    out: dict = {}
    for (i, j), c in _PROBE_POLY.items():
        for (k, m), d in _PROBE_POLY.items():
            out[(i + k, j + m)] = out.get((i + k, j + m), 0) + c * d
    return perf_counter() - start


def time_cell(run, budget: float) -> float:
    """Median calibrated time per operation, in ns, over passes filling
    ``budget`` seconds."""
    samples = []
    end = perf_counter() + budget
    before = probe()
    while len(samples) < 3 or perf_counter() < end:
        start = perf_counter()
        run()
        elapsed = perf_counter() - start
        after = probe()
        samples.append(elapsed * PROBE_NOMINAL_S / ((before + after) / 2) / PAIRS * 1e9)
        before = after
    return round(statistics.median(samples), 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=10.0, help="total time budget")
    parser.add_argument("--out", type=Path, help="JSON file to store the result in")
    parser.add_argument("--label", default="run", help="key of this result in --out")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    rng = random.Random(SEED)
    cells = {}
    for shape, draw in SHAPES.items():
        pairs = [(draw(rng), draw(rng)) for _ in range(PAIRS)]
        cells[shape] = operations(pairs)
    cells["unit"] = operations([_unit_pair(rng) for _ in range(PAIRS)])
    budget = args.seconds / sum(len(ops) for ops in cells.values())
    result = {
        "unit": "ns per operation, calibrated (median over passes)",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "pairs": PAIRS,
        "seconds": args.seconds,
        "shapes": {
            shape: {name: time_cell(run, budget) for name, run in ops.items()}
            for shape, ops in cells.items()
        },
    }
    print(json.dumps(result, indent=2))
    if args.out is not None:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[args.label] = result
        args.out.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
