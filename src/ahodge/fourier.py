"""Per-mode exact linear algebra over the base torus characters, Diophantine
enumeration of contributing modes, and assembly of the three harmonic
(p,0) spaces with explicit bases.

A reduced first-order system with only base-only and constant unknowns turns,
mode by mode, into a matrix whose entries are affine in the integer mode
vector m over Q(pi)(i).  The kernel is nontrivial exactly where all maximal
minors vanish; each minor splits (clearing denominators, separating real and
imaginary parts, grading by powers of pi, all exact by transcendence) into
integer-coefficient polynomial conditions on m, which are solved by resultant
elimination and bounded integer root enumeration.  Whenever elimination
degenerates or a root bound exceeds the configured cap the result is
UNDETERMINED, never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from . import linalg, pdesolve
from .algebra import Form
from .manifold import ManifoldSpec
from .scalars import (
    ONE,
    P_ONE,
    Scalar,
    ZERO,
    pdivmod,
    pgcd,
    pmul,
)

EXACT = "EXACT"
UNDETERMINED_STATUS = "UNDETERMINED"


class _Undetermined:
    def __repr__(self):
        return "UNDETERMINED"


UNDETERMINED = _Undetermined()


class UndeterminedUnknowns(ValueError):
    """Mode analysis requested while unknowns are still free."""


# ---------------------------------------------------------------------------
# Mode-weighted forms
# ---------------------------------------------------------------------------


class ModeForm:
    """Finite sum of base characters times invariant forms.

    ``modes`` maps integer mode vectors to forms; the zero vector indexes the
    invariant part.  Zero forms are never stored.
    """

    __slots__ = ("n", "rank", "modes")

    def __init__(self, n: int, rank: int, modes: dict | None = None):
        self.n = n
        self.rank = rank
        self.modes = {}
        for m, form in (modes or {}).items():
            if not form.is_zero():
                self.modes[tuple(m)] = form

    @staticmethod
    def invariant(form: Form, rank: int) -> "ModeForm":
        return ModeForm(form.n, rank, {(0,) * rank: form})

    def __add__(self, other: "ModeForm") -> "ModeForm":
        out = dict(self.modes)
        for m, form in other.modes.items():
            cur = out.get(m)
            total = form if cur is None else cur + form
            if total.is_zero():
                out.pop(m, None)
            else:
                out[m] = total
        return ModeForm(self.n, self.rank, out)

    def __sub__(self, other: "ModeForm") -> "ModeForm":
        return self + other.scale(-ONE)

    def scale(self, s: Scalar) -> "ModeForm":
        return ModeForm(self.n, self.rank, {m: f.scale(s) for m, f in self.modes.items()})

    def is_zero(self) -> bool:
        return not self.modes

    def invariant_part(self) -> Form:
        return self.modes.get((0,) * self.rank, Form.zero(self.n))

    def __eq__(self, other):
        return (
            isinstance(other, ModeForm)
            and self.rank == other.rank
            and (self - other).is_zero()
        )

    def __hash__(self):
        return hash((self.rank, tuple(sorted((m, f) for m, f in self.modes.items()))))

    def pretty(self, symbol: str = "phi", coords=()) -> str:
        if not self.modes:
            return "0"
        parts = []
        for m in sorted(self.modes):
            form = self.modes[m]
            body = form.pretty(symbol)
            if any(m):
                if " + " in body or " - " in body:
                    body = f"({body})"
                parts.append(f"{mode_label(m, coords)}*{body}")
            else:
                parts.append(body)
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    def __repr__(self):
        return f"ModeForm({self.pretty()})"


def mode_label(m, coords) -> str:
    labels = list(coords) + [f"m{k}" for k in range(len(coords), len(m))]
    terms = []
    for k, mk in enumerate(m):
        if mk == 0:
            continue
        mag = f"{abs(mk)}*{labels[k]}" if abs(mk) != 1 else labels[k]
        terms.append((mk < 0, mag))
    if not terms:
        return "1"
    out = ("-" if terms[0][0] else "") + terms[0][1]
    for neg, mag in terms[1:]:
        out += f" - {mag}" if neg else f" + {mag}"
    return f"e^{{2 pi i ({out})}}"


def dbar_mode(mf: ModeForm, spec: ManifoldSpec) -> ModeForm:
    """dbar of a mode form: the invariant dbar plus the base symbols of the
    conjugated frame vectors."""
    fib = spec.fibration
    n = spec.n
    out: dict = {}
    for m, alpha in mf.modes.items():
        total = spec.op_apply("dbar", alpha)
        for i in range(1, n + 1):
            s = fib.sigma(i, m)
            if not s.is_zero():
                total = total + Form.monomial(n, (n + i,)).wedge(alpha).scale(s)
        if not total.is_zero():
            out[m] = total
    return ModeForm(n, mf.rank, out)


def d_mode(mf: ModeForm, spec: ManifoldSpec) -> ModeForm:
    """Full exterior derivative of a mode form."""
    fib = spec.fibration
    n = spec.n
    out: dict = {}
    for m, alpha in mf.modes.items():
        total = spec.exterior_d(alpha)
        for i in range(1, n + 1):
            s = fib.sigma(i, m)
            if not s.is_zero():
                total = total + Form.monomial(n, (n + i,)).wedge(alpha).scale(s)
            t = fib.tau(i, m)
            if not t.is_zero():
                total = total + Form.monomial(n, (i,)).wedge(alpha).scale(t)
        if not total.is_zero():
            out[m] = total
    return ModeForm(n, mf.rank, out)


def mubar_mode(mf: ModeForm, spec: ManifoldSpec) -> ModeForm:
    """mubar is linear over functions, so it passes through every mode."""
    out = {m: spec.op_apply("mubar", alpha) for m, alpha in mf.modes.items()}
    return ModeForm(mf.n, mf.rank, out)


def star_mode(mf: ModeForm, gram) -> ModeForm:
    """The complex-linear star passes through base characters unchanged."""
    out = {m: gram.hodge_star(alpha) for m, alpha in mf.modes.items()}
    return ModeForm(mf.n, mf.rank, out)


# ---------------------------------------------------------------------------
# Mode matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeAffine:
    const: Scalar
    lin: tuple

    def eval(self, m) -> Scalar:
        total = self.const
        for s, mk in zip(self.lin, m):
            if mk and not s.is_zero():
                total = total + s * Scalar.integer(mk)
        return total

    def is_zero(self) -> bool:
        return self.const.is_zero() and all(s.is_zero() for s in self.lin)


@dataclass
class ModeMatrix:
    """Rows are residual equations, columns unknowns; entries are affine in
    the mode vector.  Constant-status unknowns only own a column in the
    mode-zero system."""

    rank: int
    base_cols: list
    const_cols: list
    rows: list  # list of dicts: unknown word -> ModeAffine
    row_monomials: list  # output monomial labelling each row

    def eval_nonzero(self, m):
        out = []
        for row in self.rows:
            out.append(
                [
                    row[u].eval(m) if u in row else ZERO
                    for u in self.base_cols
                ]
            )
        return out

    def eval_zero(self):
        cols = self.base_cols + self.const_cols
        zero = (0,) * self.rank
        out = []
        for row in self.rows:
            out.append([row[u].eval(zero) if u in row else ZERO for u in cols])
        return out


def mode_matrix(reduced: pdesolve.ReducedSystem, spec: ManifoldSpec) -> ModeMatrix:
    if reduced.has_free:
        free = [u for u, s in reduced.statuses.items() if s == pdesolve.Status.FREE]
        raise UndeterminedUnknowns(f"free unknowns remain: {free}")
    fib = spec.fibration
    rank = fib.rank
    statuses = reduced.statuses
    base_cols = sorted(u for u, s in statuses.items() if s == pdesolve.Status.BASE_ONLY)
    const_cols = sorted(u for u, s in statuses.items() if s == pdesolve.Status.CONSTANT)
    rows = []
    monomials = []
    for rrow in reduced.residual_rows:
        entries: dict = {}
        for frame, unknown, coeff in rrow.sym_terms:
            lin = tuple(coeff * s for s in fib.symbols[frame])
            cur = entries.get(unknown)
            if cur is None:
                entries[unknown] = ModeAffine(ZERO, lin)
            else:
                entries[unknown] = ModeAffine(
                    cur.const, tuple(a + b for a, b in zip(cur.lin, lin))
                )
        for unknown, coeff in rrow.zero_terms:
            cur = entries.get(unknown)
            if cur is None:
                entries[unknown] = ModeAffine(coeff, (ZERO,) * rank)
            else:
                entries[unknown] = ModeAffine(cur.const + coeff, cur.lin)
        entries = {u: a for u, a in entries.items() if not a.is_zero()}
        if entries:
            rows.append(entries)
            monomials.append(rrow.monomial)
    return ModeMatrix(rank, base_cols, const_cols, rows, monomials)


# ---------------------------------------------------------------------------
# Symbolic minors and integer solving
# ---------------------------------------------------------------------------
# A ModePoly is a dict mapping exponent tuples (one slot per mode coordinate)
# to Scalar coefficients; a RatPoly is the same with Fraction coefficients.


def _mp_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        cur = out.get(e)
        total = c if cur is None else cur + c
        if total.is_zero():
            out.pop(e, None)
        else:
            out[e] = total
    return out


def _mp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            cur = out.get(e)
            total = c if cur is None else cur + c
            if total.is_zero():
                out.pop(e, None)
            else:
                out[e] = total
    return out


def _mp_det(rows, cols, entries, rank):
    """Determinant of the square submatrix given by row and column indices;
    entries[(r, u)] are ModeAffine, absent means zero."""
    k = len(rows)
    total: dict = {}
    zero_e = (0,) * rank
    for perm in permutations(range(k)):
        sign = _perm_sign(perm)
        prod = {zero_e: ONE}
        ok = True
        for r, pc in enumerate(perm):
            aff = entries.get((rows[r], cols[pc]))
            if aff is None:
                ok = False
                break
            term: dict = {}
            if not aff.const.is_zero():
                term[zero_e] = aff.const
            for j, s in enumerate(aff.lin):
                if not s.is_zero():
                    e = tuple(1 if t == j else 0 for t in range(rank))
                    term[e] = s
            if not term:
                ok = False
                break
            prod = _mp_mul(prod, term)
        if not ok or not prod:
            continue
        if sign < 0:
            prod = {e: -c for e, c in prod.items()}
        total = _mp_add(total, prod)
    return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _split_constraints(mode_polys, rank) -> list:
    """Split Scalar-coefficient polynomials into rational ones, exactly.

    Clearing the common tau-denominator preserves the vanishing locus since
    pi is transcendental; grading by powers of tau and splitting real and
    imaginary parts then gives equivalent integer polynomial conditions."""
    out = []
    seen = set()
    for mp in mode_polys:
        if not mp:
            continue
        den = P_ONE
        for s in mp.values():
            g = pgcd(den, s.den)
            den = pmul(pdivmod(den, g)[0], s.den)
        cleared = {}
        for e, s in mp.items():
            factor = pdivmod(den, s.den)[0]
            cleared[e] = pmul(s.num, factor)
        groups: dict = {}
        for e, poly in cleared.items():
            for t, c in enumerate(poly):
                if c.re != 0:
                    groups.setdefault((t, "re"), {})[e] = c.re
                if c.im != 0:
                    groups.setdefault((t, "im"), {})[e] = c.im
        for poly in groups.values():
            norm = _rp_normalize(poly)
            key = tuple(sorted(norm.items()))
            if key not in seen:
                seen.add(key)
                out.append(norm)
    return out


def _rp_normalize(poly: dict) -> dict:
    from math import gcd

    dens = 1
    for c in poly.values():
        dens = dens * c.denominator // gcd(dens, c.denominator)
    scaled = {e: int(c * dens) for e, c in poly.items()}
    g = 0
    for v in scaled.values():
        g = gcd(g, abs(v))
    if g > 1:
        scaled = {e: v // g for e, v in scaled.items()}
    lead = scaled[max(scaled)]
    if lead < 0:
        scaled = {e: -v for e, v in scaled.items()}
    return {e: Fraction(v) for e, v in scaled.items()}


def _rp_vars(poly: dict, rank: int):
    return [j for j in range(rank) if any(e[j] for e in poly)]


def _rp_eval(poly: dict, m) -> Fraction:
    total = Fraction(0)
    for e, c in poly.items():
        term = c
        for j, exp in enumerate(e):
            for _ in range(exp):
                term *= m[j]
        total += term
    return total


def _rp_substitute(poly: dict, var: int, value: int, rank: int) -> dict:
    out: dict = {}
    for e, c in poly.items():
        scaled = c * (value ** e[var])
        ne = tuple(0 if j == var else e[j] for j in range(rank))
        total = out.get(ne, Fraction(0)) + scaled
        if total:
            out[ne] = total
        else:
            out.pop(ne, None)
    return out


def _rp_to_coeff_list(poly: dict, var: int):
    """Coefficient list in ``var`` whose entries are polynomials in the rest."""
    if not poly:
        return []
    deg = max(e[var] for e in poly)
    coeffs = [dict() for _ in range(deg + 1)]
    for e, c in poly.items():
        ne = tuple(0 if j == var else e[j] for j in range(len(e)))
        coeffs[e[var]][ne] = coeffs[e[var]].get(ne, Fraction(0)) + c
    return [
        {e: c for e, c in layer.items() if c} for layer in coeffs
    ]


def _poly_dict_det(matrix):
    """Determinant of a small matrix whose entries are RatPoly dicts."""
    k = len(matrix)
    if k == 0:
        return {}
    if k == 1:
        return matrix[0][0]
    total: dict = {}
    for col in range(k):
        entry = matrix[0][col]
        if not entry:
            continue
        minor = [
            [matrix[r][c] for c in range(k) if c != col] for r in range(1, k)
        ]
        sub = _poly_dict_det(minor)
        if not sub:
            continue
        prod: dict = {}
        for ea, ca in entry.items():
            for eb, cb in sub.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                prod[e] = prod.get(e, Fraction(0)) + ca * cb
        prod = {e: c for e, c in prod.items() if c}
        if col % 2 == 1:
            prod = {e: -c for e, c in prod.items()}
        for e, c in prod.items():
            total[e] = total.get(e, Fraction(0)) + c
    return {e: c for e, c in total.items() if c}


def _resultant(p: dict, q: dict, var: int):
    """Resultant of two rational polynomials eliminating ``var``."""
    cp = _rp_to_coeff_list(p, var)
    cq = _rp_to_coeff_list(q, var)
    dp, dq = len(cp) - 1, len(cq) - 1
    if dp <= 0 or dq <= 0:
        return None
    size = dp + dq
    rows = []
    for shift in range(dq):
        row = [dict() for _ in range(size)]
        for k, c in enumerate(reversed(cp)):
            row[shift + k] = c
        rows.append(row)
    for shift in range(dp):
        row = [dict() for _ in range(size)]
        for k, c in enumerate(reversed(cq)):
            row[shift + k] = c
        rows.append(row)
    return _poly_dict_det(rows)


def _uni_coeffs(poly: dict, var: int):
    deg = max((e[var] for e in poly), default=0)
    out = [Fraction(0)] * (deg + 1)
    for e, c in poly.items():
        out[e[var]] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def _uni_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        # remainder of a mod b over Q
        while len(a) >= len(b) and a:
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for k in range(len(b)):
                a[shift + k] -= f * b[k]
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _integer_roots(coeffs, cap: int):
    """Integer roots of a nonzero univariate polynomial over Q, enumerated
    inside the Cauchy bound; None when the bound exceeds the cap."""
    if len(coeffs) == 1:
        return []
    lead = abs(coeffs[-1])
    bound = 1 + max(abs(c) / lead for c in coeffs[:-1]) if len(coeffs) > 1 else 1
    if bound > cap:
        return None
    limit = int(bound)
    roots = []
    for k in range(-limit, limit + 1):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * k + c
        if acc == 0:
            roots.append(k)
    return roots


def _solve_integer_system(polys, rank: int, cap: int):
    """All integer solutions of a finite polynomial system, or UNDETERMINED."""
    polys = [p for p in polys if p]
    for p in polys:
        if not _rp_vars(p, rank) and any(c for c in p.values()):
            return []
    polys = [p for p in polys if _rp_vars(p, rank)]
    if not polys:
        return UNDETERMINED
    if rank == 1:
        g = None
        for p in polys:
            coeffs = _uni_coeffs(p, 0)
            g = coeffs if g is None else _uni_gcd(g, coeffs)
        if len(g) == 1:
            return []
        roots = _integer_roots(g, cap)
        if roots is None:
            return UNDETERMINED
        return [(k,) for k in roots if all(_rp_eval(p, (k,)) == 0 for p in polys)]
    if rank != 2:
        return UNDETERMINED
    for var in (0, 1):
        other = 1 - var
        elims = [p for p in polys if _rp_vars(p, rank) == [var]]
        pair_pool = [p for p in polys if other in _rp_vars(p, rank)]
        for a, b in combinations(pair_pool, 2):
            res = _resultant(a, b, other)
            if res:
                elims.append(res)
        elims = [p for p in elims if p]
        consts = [p for p in elims if not _rp_vars(p, rank)]
        if any(any(c for c in p.values()) for p in consts):
            return []
        elims = [p for p in elims if _rp_vars(p, rank)]
        if not elims:
            continue
        g = None
        for p in elims:
            coeffs = _uni_coeffs(p, var)
            g = coeffs if g is None else _uni_gcd(g, coeffs)
        if len(g) == 1:
            return []
        roots = _integer_roots(g, cap)
        if roots is None:
            return UNDETERMINED
        solutions = []
        for k in roots:
            sub = [_rp_substitute(p, var, k, rank) for p in polys]
            if any(p and not _rp_vars(p, rank) for p in sub):
                continue
            remaining = [p for p in sub if p]
            if not remaining:
                return UNDETERMINED
            g2 = None
            for p in remaining:
                g2c = _uni_coeffs(p, other)
                g2 = g2c if g2 is None else _uni_gcd(g2, g2c)
            if len(g2) == 1:
                continue
            roots2 = _integer_roots(g2, cap)
            if roots2 is None:
                return UNDETERMINED
            for k2 in roots2:
                m = [0, 0]
                m[var], m[other] = k, k2
                m = tuple(m)
                if all(_rp_eval(p, m) == 0 for p in polys):
                    solutions.append(m)
        return sorted(set(solutions))
    return UNDETERMINED


_MINOR_BUDGET = 20000


def contributing_modes(matrix: ModeMatrix, cap: int = 10**6):
    """The set of nonzero integer modes at which the per-mode system has a
    nontrivial kernel, or UNDETERMINED.  The zero mode is always analyzed
    separately (its matrix includes the constant unknowns)."""
    rank = matrix.rank
    if rank == 0 or not matrix.base_cols:
        return []
    ncols = len(matrix.base_cols)
    entries: dict = {}
    live_rows = []
    for r, row in enumerate(matrix.rows):
        alive = False
        for u, aff in row.items():
            if u in matrix.base_cols and not aff.is_zero():
                entries[(r, u)] = aff
                alive = True
        if alive:
            live_rows.append(r)
    if len(live_rows) < ncols:
        return UNDETERMINED
    from math import comb

    if comb(len(live_rows), ncols) > _MINOR_BUDGET:
        return UNDETERMINED
    minors = []
    for rows in combinations(live_rows, ncols):
        minors.append(_mp_det(list(rows), matrix.base_cols, entries, rank))
    constraints = _split_constraints(minors, rank)
    if not constraints:
        return UNDETERMINED
    solutions = _solve_integer_system(constraints, rank, cap)
    if solutions is UNDETERMINED:
        return UNDETERMINED
    out = []
    for m in solutions:
        if not any(m):
            continue
        ev = matrix.eval_nonzero(m)
        if linalg.kernel_nontrivial(ev, ncols):
            out.append(m)
    return sorted(out)


# ---------------------------------------------------------------------------
# Harmonic spaces
# ---------------------------------------------------------------------------


@dataclass
class HarmonicSpace:
    p: int
    theory: str
    dimension: int | None
    basis: list
    status: str


@dataclass
class HarmonicReport:
    """One manifold's worth of results: the three (p,0) tables with bases,
    the structural flags, and the obstruction verdict.  ``spec`` names the
    manifold and supplies the symbol and coordinates for printing bases."""

    spec: ManifoldSpec
    params: dict
    degrees: list
    spaces: dict  # (theory, p) -> HarmonicSpace
    flags: dict
    obstruction: object
    status: str


def harmonic_basis_dbar(p: int, spec: ManifoldSpec, cap: int = 10**6) -> HarmonicSpace:
    """dbar-harmonic (p,0)-forms; in this bidegree harmonic = dbar-closed,
    independent of any metric."""
    system = pdesolve.build_dbar_system(p, spec)
    reduced = pdesolve.reduce(system, spec)
    if reduced.has_free:
        return HarmonicSpace(p, "dbar", None, [], UNDETERMINED_STATUS)
    matrix = mode_matrix(reduced, spec)
    modes = contributing_modes(matrix, cap)
    if modes is UNDETERMINED:
        return HarmonicSpace(p, "dbar", None, [], UNDETERMINED_STATUS)
    rank = matrix.rank
    n = spec.n
    basis = []
    cols_zero = matrix.base_cols + matrix.const_cols
    for vec in linalg.nullspace(matrix.eval_zero(), cols=len(cols_zero)):
        form = Form.zero(n)
        for c, u in zip(vec, cols_zero):
            if not c.is_zero():
                form = form + Form.monomial(n, u, c)
        basis.append(ModeForm(n, rank, {(0,) * rank: form}))
    for m in modes:
        for vec in linalg.nullspace(matrix.eval_nonzero(m), cols=len(matrix.base_cols)):
            form = Form.zero(n)
            for c, u in zip(vec, matrix.base_cols):
                if not c.is_zero():
                    form = form + Form.monomial(n, u, c)
            basis.append(ModeForm(n, rank, {m: form}))
    return HarmonicSpace(p, "dbar", len(basis), basis, EXACT)


def _filter_span(basis, condition, p, theory, rank, n):
    """Cut the span of a basis by a function-linear condition, mode-wise."""
    if not basis:
        return HarmonicSpace(p, theory, 0, [], EXACT)
    rows: dict = {}
    for j, mf in enumerate(basis):
        cond = condition(mf)
        for m, form in cond.modes.items():
            for w, c in form.coeffs.items():
                rows.setdefault((m, w), [ZERO] * len(basis))[j] = c
    matrix = [rows[key] for key in sorted(rows)]
    kernel = linalg.nullspace(matrix, cols=len(basis))
    out = []
    for vec in kernel:
        total = ModeForm(n, rank)
        for c, mf in zip(vec, basis):
            if not c.is_zero():
                total = total + mf.scale(c)
        out.append(total)
    return HarmonicSpace(p, theory, len(out), out, EXACT)


def harmonic_basis_deltabar(
    p: int, spec: ManifoldSpec, h, cap: int = 10**6, dbar: HarmonicSpace | None = None
) -> HarmonicSpace:
    """(dbar+mu)-harmonic (p,0)-forms: the dbar-closed span cut by the
    kernel of the mu adjoint, computed through the star-based criterion
    mubar(star psi) = 0, which is function-linear and hence mode-wise.
    ``dbar`` is the degree-p dbar space when the caller already has it."""
    base = dbar if dbar is not None else harmonic_basis_dbar(p, spec, cap)
    if base.status != EXACT:
        return HarmonicSpace(p, "deltabar", None, [], UNDETERMINED_STATUS)

    def condition(mf):
        return mubar_mode(star_mode(mf, h.gram), spec)

    return _filter_span(base.basis, condition, p, "deltabar", spec.fibration.rank, spec.n)


def dolbeault_basis(
    p: int, spec: ManifoldSpec, cap: int = 10**6, dbar: HarmonicSpace | None = None
) -> HarmonicSpace:
    """Dolbeault-type (p,0) space: dbar-closed forms killed by mubar.
    ``dbar`` is the degree-p dbar space when the caller already has it."""
    base = dbar if dbar is not None else harmonic_basis_dbar(p, spec, cap)
    if base.status != EXACT:
        return HarmonicSpace(p, "dol", None, [], UNDETERMINED_STATUS)

    def condition(mf):
        return mubar_mode(mf, spec)

    return _filter_span(base.basis, condition, p, "dol", spec.fibration.rank, spec.n)
