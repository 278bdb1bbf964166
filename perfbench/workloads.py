"""Seeded case lists for the benchmark workloads.

A case is what the program receives, a manifest source plus parameter
strings, and the key of its hand-written known answer.  For the `fls`
family the branch (c on the lattice 4*pi*Z or generic) is decided here from
the symbolic form of c, never by calling ahodge.  The same seed always gives
the same list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction


@dataclass(frozen=True)
class PiAffine:
    """The scalar r1 * pi**e + r0 with rationals r1, r0 and e = +1 or -1."""

    r1: Fraction
    r0: Fraction = Fraction(0)
    e: int = 1

    @classmethod
    def rational(cls, r) -> "PiAffine":
        return cls(Fraction(0), Fraction(r))

    def lattice_k(self) -> int | None:
        """k when the value is 4*k*pi for a nonzero integer k, else None.

        pi is transcendental, so r1*pi**e + r0 = 4*k*pi forces r0 = 0,
        e = 1 and r1 = 4*k."""
        if self.r0 == 0 and self.e == 1 and self.r1 != 0:
            quarter = self.r1 / 4
            if quarter.denominator == 1:
                return int(quarter)
        return None

    def text(self) -> str:
        """The value in ahodge's scalar grammar, e.g. `(3/2)/pi - 1/2`."""
        out = ""
        if self.r1:
            mag = abs(self.r1)
            if mag == 1:
                body = "pi" if self.e == 1 else "1/pi"
            else:
                coeff = str(mag) if mag.denominator == 1 else f"({mag})"
                body = f"{coeff}*pi" if self.e == 1 else f"{coeff}/pi"
            out = ("-" if self.r1 < 0 else "") + body
        if self.r0 or not out:
            if not out:
                return str(self.r0)
            out += (" - " if self.r0 < 0 else " + ") + str(abs(self.r0))
        return out


@dataclass
class Case:
    source: str
    params: dict = field(default_factory=dict)
    expect: str = ""  # key into known_answers.json
    k: int | None = None  # fls lattice index: dbar p=2 lives at modes (+-k, 0)

    def to_json(self) -> dict:
        out = {"source": self.source, "params": self.params, "expect": self.expect}
        if self.k is not None:
            out["k"] = self.k
        return out


def fls_case(a: PiAffine, b: PiAffine, c: PiAffine) -> Case:
    k = c.lattice_k()
    return Case(
        "builtin:fls",
        {"a": a.text(), "b": b.text(), "c": c.text()},
        "fls_lattice" if k is not None else "fls_generic",
        abs(k) if k is not None else None,
    )


_q = PiAffine.rational


# The eight cases of scripts/reproduce_tables.py plus the standalone manifest.
TABLES = (
    fls_case(_q(1), _q(0), _q(1)),
    fls_case(_q(1), _q(0), PiAffine(Fraction(4))),
    fls_case(_q(3), _q(2), PiAffine(Fraction(-4))),
    fls_case(_q(2), _q(0), _q(-1)),
    Case("builtin:fls_nonak", {}, "fls_nonak"),
    Case("builtin:iwasawa_ak", {}, "iwasawa_ak"),
    Case("builtin:iwasawa_std", {}, "iwasawa_std"),
    Case("builtin:iwasawa_complex", {}, "iwasawa_complex"),
    Case("manifests/torus6.am", {}, "torus6"),
)

# Magnitudes of the rational lattice parameters a and b.
SMALL = (Fraction(1, 2), Fraction(1), Fraction(2))

# On the lattice branch the brute-force mode search evaluates a degree-4
# polynomial at the 2k^2 + 1 integers inside its Cauchy bound and a degree-2
# one at 2a^2k^2 + 1, about 2k^2 (5 + 3a^2) coefficient steps per dbar p=2
# space.  Each slot fixes that count, so a seed changes the inputs but not
# the size of a pass; k lands between about 25 and 75 (38 to 62 at |a| = 1).
LATTICE_STEPS = (23104, 33856, 46656, 61504)
LARGE_K = (10**3, 10**6)

# pi_generic slots: (r1, e, r0) magnitudes for a, b and c, the value being
# +-r1 * pi**e +- r0.  1/pi appears in every parameter and a rational part
# in every parameter, one per slot.  Rational parts everywhere, 1/pi in c
# next to a rational part, or 1/pi in both a and b cost up to three times
# as much, so a run would hold too few reports for a tail.  Seeds draw only
# the signs and the order: the heights of the rationals move the report
# time by up to 30%, the signs do not.
PI_SLOTS = (
    ((1, 1, "1/2"), (2, 1, 0), ("1/2", 1, 0)),
    ((2, 1, 0), ("1/2", -1, 1), (1, 1, 0)),
    (("1/2", -1, 0), (1, 1, 0), (2, 1, 1)),
    ((1, 1, 0), ("1/2", 1, 1), (2, -1, 0)),
    ((2, 1, 0), (1, 1, 0), ("1/2", -1, 0)),
)


def _sign(rng: random.Random) -> int:
    return rng.choice((1, -1))


def _small(rng: random.Random) -> Fraction:
    return rng.choice(SMALL) * _sign(rng)


def _lattice_c(rng: random.Random, k: int) -> PiAffine:
    return PiAffine(Fraction(4 * k * _sign(rng)))


def tables(seed: int) -> list:
    cases = list(TABLES)
    random.Random(seed).shuffle(cases)
    return cases


def lattice(seed: int) -> list:
    """fls with c = +-4*k*pi: mid-range k in fixed-work slots, plus one
    k in [10^3, 10^6] whose Cauchy bound passes the default --modes-bound."""
    rng = random.Random(seed)
    cases = []
    for steps in LATTICE_STEPS:
        a, b = _small(rng), _small(rng)
        k = round(math.sqrt(steps / (2 * (5 + 3 * a * a)))) + rng.randint(-1, 1)
        cases.append(fls_case(_q(a), _q(b), _lattice_c(rng, k)))
    a, b = _small(rng), _small(rng)
    cases.append(fls_case(_q(a), _q(b), _lattice_c(rng, rng.randint(*LARGE_K))))
    rng.shuffle(cases)
    return cases


def pi_generic(seed: int) -> list:
    """fls at generic points where a, b and c all carry pi: r1*pi**(+-1) + r0."""
    rng = random.Random(seed)
    cases = []
    for slot in PI_SLOTS:
        a, b, c = (PiAffine(_sign(rng) * Fraction(r1), _sign(rng) * Fraction(r0), e) for r1, e, r0 in slot)
        case = fls_case(a, b, c)
        if case.expect != "fls_generic":
            raise AssertionError(f"pi_generic drew a lattice point: {case.params}")
        cases.append(case)
    rng.shuffle(cases)
    return cases


WORKLOADS = {"tables": tables, "lattice": lattice, "pi_generic": pi_generic}
