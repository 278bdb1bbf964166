"""First-order systems equivalent to dbar(psi) = 0 for (p,0)-forms with
unknown function coefficients, and the two inference rules that classify
unknowns as fiber-constant or globally constant.

Both rules are purely syntactic transcriptions of compactness arguments:

* fiber rule: if for every frame vector in the declared fiber span there is
  an equation  Vbar_i(f) + r_i = 0  whose remainder r_i only involves
  unknowns that the (pure fiber) vector V_i annihilates, then
  sum_i V_i Vbar_i (f) = 0 with a fiber-elliptic operator free of zero-order
  terms, and the maximum principle on the compact fiber makes f a function
  of the base alone.

* global rule: if the same holds for every frame vector (with remainders
  annihilated by the respective V_i), then sum_i V_i Vbar_i (f) = 0 on the
  compact total space and ellipticity forces f to be constant.

Anything these rules cannot tighten is left ``free`` and downstream results
become UNDETERMINED rather than guessed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .algebra import Form, word_bidegree, words_of_degree
from .manifold import ManifoldSpec
from .scalars import Scalar


class Status(enum.IntEnum):
    FREE = 0
    BASE_ONLY = 1
    CONSTANT = 2
    ZERO = 3


@dataclass(frozen=True)
class DerivTerm:
    frame: int
    unknown: tuple
    coeff: Scalar  # coeff * Vbar_frame(f_unknown)


@dataclass(frozen=True)
class ZeroTerm:
    unknown: tuple
    coeff: Scalar


@dataclass(frozen=True)
class Equation:
    monomial: tuple  # the (p,1) output word this equation is the coefficient of
    derivs: tuple
    zeros: tuple

    def pretty(self, symbol: str = "phi") -> str:
        parts = []
        for t in self.derivs:
            parts.append(f"({t.coeff})*Vbar_{t.frame}(f{_label(t.unknown)})")
        for t in self.zeros:
            parts.append(f"({t.coeff})*f{_label(t.unknown)}")
        return " + ".join(parts) + " = 0" if parts else "0 = 0"


def _label(word) -> str:
    return "{" + "".join(str(j) for j in word) + "}"


@dataclass(frozen=True)
class Promotion:
    unknown: tuple
    new_status: Status
    rule: str
    equations: tuple  # indices into the equation list, one per frame used


@dataclass
class PDESystem:
    p: int
    unknowns: list
    equations: list
    status: dict
    promotions: list = field(default_factory=list)

    def copy(self) -> "PDESystem":
        return PDESystem(
            self.p,
            list(self.unknowns),
            list(self.equations),
            dict(self.status),
            list(self.promotions),
        )


def build_dbar_system(p: int, spec: ManifoldSpec) -> PDESystem:
    """One equation per (p,1) output monomial of dbar applied to
    sum_u f_u phi^u with unknown functions f_u."""
    n = spec.n
    if not 0 <= p <= n:
        raise ValueError(f"p must lie in 0..{n}")
    unknowns = [w for w in words_of_degree(n, p) if word_bidegree(w, n) == (p, 0)]
    derivs: dict = {}
    zeros: dict = {}
    from .algebra import merge_words

    for u in unknowns:
        for i in range(1, n + 1):
            merged = merge_words((n + i,), u)
            if merged is None:
                continue
            sign, word = merged
            coeff = Scalar.integer(sign)
            derivs.setdefault(word, []).append(DerivTerm(i, u, coeff))
        image = spec.op_apply("dbar", Form.monomial(n, u))
        for word, c in image.coeffs.items():
            zeros.setdefault(word, []).append(ZeroTerm(u, c))
    out_words = sorted(set(derivs) | set(zeros))
    equations = [
        Equation(w, tuple(derivs.get(w, ())), tuple(zeros.get(w, ())))
        for w in out_words
    ]
    status = {u: Status.FREE for u in unknowns}
    return PDESystem(p, unknowns, equations, status)


def _single_deriv_equations(sys: PDESystem, unknown, frame):
    """Indices of equations whose only derivative term is Vbar_frame(unknown)."""
    out = []
    for idx, eq in enumerate(sys.equations):
        if len(eq.derivs) != 1:
            continue
        t = eq.derivs[0]
        if t.frame == frame and t.unknown == unknown and not t.coeff.is_zero():
            out.append(idx)
    return out


def _remainder_annihilated(sys: PDESystem, eq: Equation, frame: int, spec) -> bool:
    """Whether V_frame kills every unknown in the zero-order remainder."""
    fib = spec.fibration
    for t in eq.zeros:
        st = sys.status[t.unknown]
        if st >= Status.CONSTANT:
            continue
        if fib.pure_fiber.get(frame, False) and st >= Status.BASE_ONLY:
            continue
        return False
    return True


def infer_fiber_constancy(sys: PDESystem, spec: ManifoldSpec) -> PDESystem:
    """One pass of the fiber maximum-principle rule."""
    fib = spec.fibration
    out = sys.copy()
    if not fib.fiber_span:
        return out
    for f in out.unknowns:
        if out.status[f] != Status.FREE:
            continue
        used = []
        for i in fib.fiber_span:
            hit = None
            for idx in _single_deriv_equations(out, f, i):
                if _remainder_annihilated(out, out.equations[idx], i, spec):
                    hit = idx
                    break
            if hit is None:
                used = None
                break
            used.append(hit)
        if used is not None:
            out.status[f] = Status.BASE_ONLY
            out.promotions.append(
                Promotion(f, Status.BASE_ONLY, "fiber_maximum_principle", tuple(used))
            )
    return out


def infer_global_constancy(sys: PDESystem, spec: ManifoldSpec) -> PDESystem:
    """One pass of the global ellipticity rule."""
    out = sys.copy()
    n = spec.n
    for f in out.unknowns:
        if out.status[f] >= Status.CONSTANT:
            continue
        used = []
        for i in range(1, n + 1):
            hit = None
            for idx in _single_deriv_equations(out, f, i):
                if _remainder_annihilated(out, out.equations[idx], i, spec):
                    hit = idx
                    break
            if hit is None:
                used = None
                break
            used.append(hit)
        if used is not None:
            out.status[f] = Status.CONSTANT
            out.promotions.append(
                Promotion(f, Status.CONSTANT, "global_ellipticity", tuple(used))
            )
    return out


@dataclass(frozen=True)
class ResidualRow:
    monomial: tuple
    sym_terms: tuple  # (frame, unknown, coeff): coeff * sigma_frame(m) * f_m
    zero_terms: tuple  # (unknown, coeff)
    free_terms: tuple  # derivative terms of still-free unknowns


@dataclass
class ReducedSystem:
    system: PDESystem
    residual_rows: list

    @property
    def has_free(self) -> bool:
        return any(s == Status.FREE for s in self.system.status.values())

    @property
    def statuses(self) -> dict:
        return self.system.status


def reduce(sys: PDESystem, spec: ManifoldSpec) -> ReducedSystem:
    """Apply both inference rules to a fixpoint, then drop derivative terms
    that vanish identically (fiber derivatives of base functions, any
    derivative of a constant)."""
    current = sys.copy()
    while True:
        before = dict(current.status)
        current = infer_fiber_constancy(current, spec)
        current = infer_global_constancy(current, spec)
        if current.status == before:
            break
    fib = spec.fibration
    rows = []
    for eq in current.equations:
        syms = []
        frees = []
        for t in eq.derivs:
            st = current.status[t.unknown]
            if st >= Status.CONSTANT:
                continue
            if st == Status.BASE_ONLY:
                if fib.pure_fiber.get(t.frame, False):
                    continue
                syms.append((t.frame, t.unknown, t.coeff))
            else:
                frees.append((t.frame, t.unknown, t.coeff))
        zeros = [(t.unknown, t.coeff) for t in eq.zeros]
        if syms or frees or zeros:
            rows.append(ResidualRow(eq.monomial, tuple(syms), tuple(zeros), tuple(frees)))
    return ReducedSystem(current, rows)
