"""Per-mode exact linear algebra over the base torus characters, Diophantine
enumeration of contributing modes, and assembly of the three harmonic
(p,0) spaces with explicit bases.

A reduced dbar system (``pdesolve``) with only base-only and constant
unknowns turns, mode by mode, into a matrix whose entries are polynomials of
degree at most 1 in the integer mode vector m over Q(pi)(i).  The kernel is
nontrivial exactly where all maximal minors vanish, so nowhere if one is a
nonzero constant in m, which ends the search.  Otherwise each minor splits
(clearing denominators, separating real and imaginary parts, grading by
powers of pi, all exact by transcendence) into integer-coefficient
polynomial conditions on m, solved by substituting integer roots, resultant
elimination at two coordinates, a gcd (``scalars.pgcd``) and exact integer
root isolation (bisection between the integer breaks where a polynomial is
monotone).  Matrix entries, minors and resultants are all polynomials of
one sparse type (see "Symbolic minors" below).

The other two spaces cut the dbar space by the kernel of one operator on
the (p,0) block: mubar for the Dolbeault-type space, and the Gram adjoint of
mu for the (dbar+mu)-harmonic one.  Both are function-linear, so each acts
on every mode separately.

"No certified answer" is ``None`` throughout, at every base rank: the mode
search returns it when a root bound has more bits than the configured cap
(``MODES_BOUND`` by default), or when no coordinate is pinned to finitely
many roots, by conditions in it alone or by resultants at two coordinates.
A HarmonicSpace then holds ``basis=None``, rendered as UNDETERMINED.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd, lcm

from . import linalg, pdesolve
from .algebra import Form
from .manifold import ManifoldSpec
from .scalars import (
    ONE,
    P_ONE,
    QQi,
    Scalar,
    ZERO,
    integer_coeffs,
    join_terms,
    pdivmod,
    pgcd,
    pmul,
    pnorm,
)

# The two rendered statuses of a space and of a report.
EXACT = "EXACT"
UNDETERMINED = "UNDETERMINED"

# Default cap on the bit length of a root bound in the mode search.
MODES_BOUND = 256


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
        return join_terms(parts)

    def __repr__(self):
        return f"ModeForm({self.pretty()})"


def mode_label(m, coords) -> str:
    labels = list(coords) + [f"m{k}" for k in range(len(coords), len(m))]
    terms = []
    for k, mk in enumerate(m):
        if mk == 0:
            continue
        mag = f"{abs(mk)}*{labels[k]}" if abs(mk) != 1 else labels[k]
        terms.append(f"-{mag}" if mk < 0 else mag)
    if not terms:
        return "1"
    return f"e^{{2 pi i ({join_terms(terms)})}}"


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


# ---------------------------------------------------------------------------
# Mode matrices
# ---------------------------------------------------------------------------


@dataclass
class ModeMatrix:
    """Rows are the equations of a reduced dbar system that survive at some
    mode, columns unknowns; each entry is a polynomial of degree at most 1
    in the mode vector (see "Symbolic minors" below).  Constant-status
    unknowns only own a column in the mode-zero system."""

    rank: int
    base_cols: list
    const_cols: list
    rows: list  # list of dicts: unknown word -> nonzero polynomial
    row_monomials: list  # output monomial labelling each row

    def columns(self, m) -> list:
        """The unknowns owning a column of the system at mode m."""
        return self.base_cols if any(m) else self.base_cols + self.const_cols

    def eval(self, m) -> list:
        cols = self.columns(m)
        return [[_poly_eval(row[u], m) if u in row else ZERO for u in cols] for row in self.rows]


def mode_matrix(reduced: pdesolve.PDESystem, spec: ManifoldSpec) -> ModeMatrix:
    """The reduced system mode by mode.  Derivative terms that vanish
    identically are dropped: any derivative of a constant, and fiber
    derivatives of base-only unknowns.  A base derivative
    c * Vbar_i(f) becomes c * sigma_i(m) * f, linear in m."""
    statuses = reduced.statuses
    if reduced.has_free:
        free = [u for u, s in statuses.items() if s == pdesolve.Status.FREE]
        raise UndeterminedUnknowns(f"free unknowns remain: {free}")
    fib = spec.fibration
    rank = fib.rank
    const = (0,) * rank
    units = [tuple(int(t == j) for t in range(rank)) for j in range(rank)]
    base_cols = sorted(u for u, s in statuses.items() if s == pdesolve.Status.BASE_ONLY)
    const_cols = sorted(u for u, s in statuses.items() if s == pdesolve.Status.CONSTANT)
    rows = []
    monomials = []
    for eq in reduced.equations:
        entries: dict = {}
        for u, c in eq.zeros:
            _poly_add(entries.setdefault(u, {}), const, c)
        f, i = eq.unknown, eq.frame
        if statuses[f] < pdesolve.Status.CONSTANT and not fib.pure_fiber.get(i, False):
            for e, s in zip(units, fib.symbols[i]):
                if not s.is_zero():
                    _poly_add(entries.setdefault(f, {}), e, eq.coeff * s)
        entries = {u: poly for u, poly in entries.items() if poly}
        if entries:
            rows.append(entries)
            monomials.append(eq.monomial)
    return ModeMatrix(rank, base_cols, const_cols, rows, monomials)


# ---------------------------------------------------------------------------
# Symbolic minors and integer solving
# ---------------------------------------------------------------------------
# A polynomial in the mode vector is a dict mapping exponent tuples (one slot
# per mode coordinate) to nonzero coefficients: Scalars in the mode-matrix
# entries and their maximal minors, ints in the split conditions and their
# resultants.  The empty dict is the zero polynomial.  Every routine below
# serves both coefficient types.  Conditions in one coordinate meet in their
# gcd, taken by ``scalars.pgcd`` with that coordinate in the place of tau.


def _poly_add(poly: dict, e: tuple, c) -> None:
    """Add the term c*m^e to ``poly`` in place, keeping zeros out."""
    total = poly[e] + c if e in poly else c
    if total:
        poly[e] = total
    else:
        poly.pop(e, None)


def _poly_eval(poly: dict, m) -> Scalar:
    """A Scalar-coefficient polynomial at the integer mode ``m``."""
    total = ZERO
    for e, c in poly.items():
        x = 1
        for mk, k in zip(m, e):
            x *= mk**k
        if x:
            total = total + (c if x == 1 else c * Scalar.integer(x))
    return total


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _poly_add(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def _poly_det(matrix) -> dict:
    """Determinant of a square matrix of polynomials, by Laplace expansion
    along the first row."""
    if len(matrix) == 1:
        return matrix[0][0]
    total: dict = {}
    for col, entry in enumerate(matrix[0]):
        if not entry:
            continue
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        for e, c in _poly_mul(entry, _poly_det(minor)).items():
            _poly_add(total, e, -c if col % 2 else c)
    return total


def _poly_vars(poly: dict, coords):
    return [j for j in coords if any(e[j] for e in poly)]


def _poly_substitute(poly: dict, var: int, value: int) -> dict:
    """``poly`` with mode coordinate ``var`` set to the integer ``value``."""
    out: dict = {}
    for e, c in poly.items():
        _poly_add(out, e[:var] + (0,) + e[var + 1 :], c * value ** e[var])
    return out


def _poly_coeffs(poly: dict, var: int) -> list:
    """Coefficients of ``poly`` as a polynomial in ``var``, lowest degree
    first; each is a polynomial in the other coordinates."""
    coeffs = [{} for _ in range(max(e[var] for e in poly) + 1)]
    for e, c in poly.items():
        coeffs[e[var]][e[:var] + (0,) + e[var + 1 :]] = c
    return coeffs


def _split_constraints(mode_polys) -> list:
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
            # a constant denominator is 1 (monic) and leaves the lcm alone
            if len(s.den) > 1:
                g = pgcd(den, s.den) if len(den) > 1 else P_ONE
                den = pmul(pdivmod(den, g)[0], s.den)
        groups: dict = {}
        for e, s in mp.items():
            for t, c in enumerate(pmul(s.num, pdivmod(den, s.den)[0])):
                if c.a:
                    groups.setdefault((t, "re"), {})[e] = (c.a, c.d)
                if c.b:
                    groups.setdefault((t, "im"), {})[e] = (c.b, c.d)
        for poly in groups.values():
            norm = _rp_normalize(poly)
            key = tuple(sorted(norm.items()))
            if key not in seen:
                seen.add(key)
                out.append(norm)
    return out


def _rp_normalize(poly: dict) -> dict:
    """Primitive integer multiple of a rational polynomial whose
    coefficients are (numerator, denominator) pairs, leading coefficient
    positive; the pairs need not be in lowest terms."""
    den = lcm(*(d for _, d in poly.values()))
    scaled = {e: n * (den // d) for e, (n, d) in poly.items()}
    g = gcd(*scaled.values())
    if scaled[max(scaled)] < 0:
        g = -g
    return {e: v // g for e, v in scaled.items()}


def _resultant(p: dict, q: dict, var: int) -> dict:
    """Sylvester resultant of two polynomials of positive degree in ``var``."""
    cp = _poly_coeffs(p, var)[::-1]
    cq = _poly_coeffs(q, var)[::-1]
    dp, dq = len(cp) - 1, len(cq) - 1
    rows = [[{}] * shift + cp + [{}] * (dq - 1 - shift) for shift in range(dq)]
    rows += [[{}] * shift + cq + [{}] * (dp - 1 - shift) for shift in range(dp)]
    return _poly_det(rows)


# Integer roots are isolated exactly, without scanning: a polynomial is
# monotone between consecutive integer "breaks" at distance at least 2, so
# each such gap holds at most one root, found by bisection over the integers.
# The breaks of f are those of f' plus the integers bracketing each sign
# change of f', found the same way.  Keeping every break of f' keeps both
# ends of a unit gap, which may hold a sign change of the derivative and so
# is never taken as monotone.  Each sign change costs one bisection, so the
# work grows with the degree and the bit length of the root bound, not with
# the bound itself.


def _horner_sign(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _refine(coeffs, breaks) -> list:
    """``breaks`` plus, in each gap where the integer polynomial ``coeffs``
    changes sign, its integer zero or the two consecutive integers around
    its zero; the polynomial must be monotone on every gap of width at
    least 2."""
    out = list(breaks)
    signs = [_horner_sign(coeffs, x) for x in breaks]
    for lo, hi, s_lo, s_hi in zip(breaks, breaks[1:], signs, signs[1:]):
        if s_lo * s_hi < 0:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                s = _horner_sign(coeffs, mid)
                if s == 0:
                    lo = hi = mid
                elif s == s_lo:
                    lo = mid
                else:
                    hi = mid
            out += [lo, hi]
    return out


def _monotone_breaks(coeffs, lo: int, hi: int) -> list:
    """Sorted integers from ``lo`` to ``hi``, both included, such that the
    integer polynomial ``coeffs`` is monotone on every gap of width at
    least 2 between consecutive ones."""
    if len(coeffs) <= 2:
        return [lo, hi]
    deriv = [k * c for k, c in enumerate(coeffs)][1:]
    return sorted(set(_refine(deriv, _monotone_breaks(deriv, lo, hi))))


def _integer_roots(coeffs, cap: int):
    """Integer roots of a nonzero univariate integer polynomial (lowest
    degree first), isolated exactly inside its Cauchy bound; None when the
    bound has more than ``cap`` bits."""
    if len(coeffs) == 1:
        return []
    coeffs = list(coeffs)
    zero_root = coeffs[0] == 0
    while coeffs[0] == 0:  # strip the x^v factor
        coeffs.pop(0)
    bound = 1 + max((abs(c) for c in coeffs[:-1]), default=0) // abs(coeffs[-1])
    if bound.bit_length() > cap:
        return None
    candidates = _refine(coeffs, _monotone_breaks(coeffs, -bound, bound))
    roots = {x for x in candidates if _horner_sign(coeffs, x) == 0}
    return sorted(roots | {0} if zero_root else roots)


def _common_roots(polys, var: int, cap: int):
    """Integer common roots of nonzero polynomials in ``var`` alone (the
    roots of their gcd), or None when the root bound exceeds the cap."""
    g = None
    for p in polys:
        coeffs = pnorm(QQi(sum(c.values())) for c in _poly_coeffs(p, var))
        g = coeffs if g is None else pgcd(g, coeffs)
    return _integer_roots(integer_coeffs(g), cap)


def _solve_integer_system(polys, coords: tuple, cap: int):
    """All integer solutions of a polynomial system in the mode coordinates
    ``coords`` (the others already substituted), as tuples over ``coords``,
    or None when they cannot be certified.  Roots of conditions in one
    coordinate alone are substituted first; resultants, of the given
    conditions only, are taken at two coordinates.  Every root found is a
    root of a gcd of all the conditions left, so it solves the system."""
    polys = [p for p in polys if p]
    held = [_poly_vars(p, coords) for p in polys]
    if [] in held:
        return []  # a nonzero constant condition
    if not polys:
        return None if coords else [()]  # a whole line of modes, or a point
    if len(coords) == 1:
        roots = _common_roots(polys, coords[0], cap)
        return None if roots is None else [(k,) for k in roots]
    for j, var in enumerate(coords):
        alone = [p for p, h in zip(polys, held) if h == [var]]
        roots = _common_roots(alone, var, cap) if alone else None
        if roots is not None:  # over the cap, the elimination may still decide
            return _lift(polys, coords, j, roots, cap)
    if len(coords) == 2:
        for j, var in enumerate(coords):
            other = coords[1 - j]
            elims = [p for p, h in zip(polys, held) if h == [var]]
            pair_pool = [p for p, h in zip(polys, held) if other in h]
            for a, b in combinations(pair_pool, 2):
                res = _resultant(a, b, other)
                if res:
                    elims.append(res)
            if any(not _poly_vars(p, coords) for p in elims):
                return []
            if elims:
                roots = _common_roots(elims, var, cap)
                return None if roots is None else _lift(polys, coords, j, roots, cap)
    return None


def _lift(polys, coords: tuple, j: int, roots, cap: int):
    """The solutions with coordinate ``coords[j]`` at one of ``roots``, or
    None when one root leaves the rest uncertified."""
    rest = coords[:j] + coords[j + 1 :]
    out = []
    for k in roots:
        sub = _solve_integer_system([_poly_substitute(p, coords[j], k) for p in polys], rest, cap)
        if sub is None:
            return None
        out += [s[:j] + (k,) + s[j:] for s in sub]
    return sorted(out)


_MINOR_BUDGET = 20000


def contributing_modes(matrix: ModeMatrix, cap: int = MODES_BOUND):
    """The sorted nonzero integer modes at which the per-mode system has a
    nontrivial kernel, or None when they cannot be certified.  The zero
    mode is always analyzed separately (its matrix includes the constant
    unknowns)."""
    rank = matrix.rank
    if rank == 0 or not matrix.base_cols:
        return []
    ncols = len(matrix.base_cols)
    rows = []
    for row in matrix.rows:
        polys = [row.get(u, {}) for u in matrix.base_cols]
        if any(polys):
            rows.append(polys)
    if len(rows) < ncols or comb(len(rows), ncols) > _MINOR_BUDGET:
        return None
    minors = []
    for pick in combinations(rows, ncols):
        minors.append(_poly_det(list(pick)))
        if minors[-1].keys() == {(0,) * rank}:
            return []  # a nonzero constant minor: full column rank at every nonzero mode
    solutions = _solve_integer_system(_split_constraints(minors), tuple(range(rank)), cap)
    if solutions is None:
        return None
    return [
        m for m in solutions if any(m) and linalg.kernel_nontrivial(matrix.eval(m), ncols)
    ]


# ---------------------------------------------------------------------------
# Harmonic spaces
# ---------------------------------------------------------------------------


@dataclass
class HarmonicSpace:
    """A harmonic (p,0) space of one theory; ``basis`` is None when the space
    is undetermined, and the dimension and status follow from it."""

    p: int
    theory: str
    basis: list | None

    @property
    def dimension(self) -> int | None:
        return None if self.basis is None else len(self.basis)

    @property
    def status(self) -> str:
        return UNDETERMINED if self.basis is None else EXACT


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

    @property
    def status(self) -> str:
        exact = all(s.basis is not None for s in self.spaces.values())
        return EXACT if exact else UNDETERMINED


def harmonic_basis_dbar(p: int, spec: ManifoldSpec, cap: int = MODES_BOUND) -> HarmonicSpace:
    """dbar-harmonic (p,0)-forms; in this bidegree harmonic = dbar-closed,
    independent of any metric.  One kernel per mode: the zero mode, then
    each contributing mode."""
    reduced = pdesolve.reduce(pdesolve.build_dbar_system(p, spec), spec)
    if reduced.has_free:
        return HarmonicSpace(p, "dbar", None)
    matrix = mode_matrix(reduced, spec)
    modes = contributing_modes(matrix, cap)
    if modes is None:
        return HarmonicSpace(p, "dbar", None)
    n = spec.n
    basis = []
    for m in [(0,) * matrix.rank] + modes:
        cols = matrix.columns(m)
        for vec in linalg.nullspace(matrix.eval(m), cols=len(cols)):
            form = Form.zero(n)
            for c, u in zip(vec, cols):
                if not c.is_zero():
                    form = form + Form.monomial(n, u, c)
            basis.append(ModeForm(n, matrix.rank, {m: form}))
    return HarmonicSpace(p, "dbar", basis)


def _filter_span(dbar: HarmonicSpace, matrix, theory: str, spec: ManifoldSpec):
    """Cut the span of the dbar space by the kernel of ``matrix``, an operator
    on the (p,0) block whose columns follow ``spec.block_words(p, 0)``.  The
    operator is function-linear, so it acts on the coefficients of each mode
    separately.  ``None`` cuts nothing; an undetermined or zero dbar space is
    passed through."""
    if not dbar.basis or matrix is None:
        return HarmonicSpace(dbar.p, theory, dbar.basis)
    basis = dbar.basis
    col = {w: k for k, w in enumerate(spec.block_words(dbar.p, 0))}
    rows: dict = {}
    for j, mf in enumerate(basis):
        for m, form in mf.modes.items():
            for w, c in form.coeffs.items():
                for r, row in enumerate(matrix):
                    x = row[col[w]]
                    if not x.is_zero():
                        entry = rows.setdefault((m, r), [ZERO] * len(basis))
                        entry[j] = entry[j] + x * c
    kernel = linalg.nullspace([rows[key] for key in sorted(rows)], cols=len(basis))
    out = []
    for vec in kernel:
        total = ModeForm(spec.n, spec.fibration.rank)
        for c, mf in zip(vec, basis):
            if not c.is_zero():
                total = total + mf.scale(c)
        out.append(total)
    return HarmonicSpace(dbar.p, theory, out)


def harmonic_basis_deltabar(dbar: HarmonicSpace, spec: ManifoldSpec, h) -> HarmonicSpace:
    """(dbar+mu)-harmonic (p,0)-forms: the dbar space ``dbar`` of degree p
    cut by the kernel of mu*, the Gram adjoint of mu on block (p-2, 1).  On
    (p,0)-forms mu and dbar* vanish by bidegree, so deltabar = dbar and
    deltabar* = mu*; mu is zero-order, so the pointwise adjoint acts mode by
    mode.  mu* = conj(G_src)^-1 M^H conj(G_tgt) with G_src invertible, so
    ker mu* = ker M^H conj(G_tgt), G_tgt the Gram block of (p, 0): one
    product and no inverse."""
    m = spec.piece_matrix((dbar.p - 2, 1), "mu")
    if m is not None:
        m = linalg.mat_mul(linalg.conj_transpose(m), h.gram.conj_block(dbar.p, 0))
    return _filter_span(dbar, m, "deltabar", spec)


def dolbeault_basis(dbar: HarmonicSpace, spec: ManifoldSpec) -> HarmonicSpace:
    """Dolbeault-type (p,0) space: the forms of the dbar space ``dbar``
    killed by mubar."""
    mubar = spec.piece_matrix((dbar.p, 0), "mubar")
    return _filter_span(dbar, mubar, "dol", spec)
