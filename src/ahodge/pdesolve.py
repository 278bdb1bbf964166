"""The first-order system dbar(psi) = 0 for a (p,0)-form psi = sum_u f_u phi^u
with unknown function coefficients f_u, and the two inference rules that
classify unknowns as base-only or constant.

Both rules are one syntactic transcription of a compactness argument, read
from the table ``RULES`` (rule name -> the status it proves): if for every
frame vector V_i of the rule's frames there is an equation
Vbar_i(f) + r_i = 0 whose remainder r_i only involves unknowns that V_i
annihilates, then sum_i V_i Vbar_i (f) = 0 with an elliptic operator free of
zero-order terms, and the maximum principle forces f to be constant along
what the frames span.

* fiber maximum principle: the frames are the declared fiber span, which
  spans the compact fiber, so f is a function of the base alone;
* global ellipticity: the frames are all of V_1..V_n, so f is constant on
  the compact total space.

Anything these rules cannot tighten is left ``FREE`` and downstream results
become UNDETERMINED rather than guessed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .manifold import ManifoldSpec
from .scalars import ONE, Scalar


class Status(enum.IntEnum):
    FREE = 0
    BASE_ONLY = 1
    CONSTANT = 2


# rule name -> the status its certificate proves
RULES = {
    "fiber_maximum_principle": Status.BASE_ONLY,
    "global_ellipticity": Status.CONSTANT,
}


@dataclass(frozen=True)
class Equation:
    """coeff * Vbar_frame(f_unknown) + sum c f_u over ``zeros`` ((u, c), ...)
    = 0, the coefficient of phi^monomial, a (p,1) word, in dbar psi."""

    monomial: tuple
    frame: int
    unknown: tuple
    coeff: Scalar  # +-1
    zeros: tuple


@dataclass(frozen=True)
class Promotion:
    unknown: tuple
    new_status: Status
    rule: str
    equations: tuple  # indices into the equation list, one per frame used


@dataclass
class PDESystem:
    unknowns: list
    equations: list
    statuses: dict
    promotions: list = field(default_factory=list)

    @property
    def has_free(self) -> bool:
        return any(s == Status.FREE for s in self.statuses.values())


def build_dbar_system(p: int, spec: ManifoldSpec) -> PDESystem:
    """One equation per (p,1) word w = u + (n+i,): the coefficient of phi^w
    in dbar(sum_u f_u phi^u) is (-1)^p Vbar_i(f_u), from
    phibar^i ^ phi^u = (-1)^p phi^w, plus the zero-order terms read from row
    w of the dbar piece matrix on block (p, 0)."""
    n = spec.n
    if not 0 <= p <= n:
        raise ValueError(f"p must lie in 0..{n}")
    unknowns = spec.block_words(p, 0)
    dbar = spec.piece_matrix((p, 0), "dbar")
    sign = -ONE if p % 2 else ONE
    equations = [
        Equation(
            w, w[-1] - n, w[:-1], sign,
            tuple((u, c) for u, c in zip(unknowns, row) if not c.is_zero()),
        )
        for w, row in zip(spec.block_words(p, 1), dbar)
    ]
    return PDESystem(unknowns, equations, {u: Status.FREE for u in unknowns})


def _remainder_annihilated(sys: PDESystem, eq: Equation, frame: int, spec) -> bool:
    """Whether V_frame kills every unknown in the zero-order remainder."""
    pure_fiber = spec.fibration.pure_fiber.get(frame, False)
    for u, _c in eq.zeros:
        st = sys.statuses[u]
        if st >= Status.CONSTANT or (pure_fiber and st >= Status.BASE_ONLY):
            continue
        return False
    return True


def _certificate(sys: PDESystem, f, frame: int, spec):
    """Index of the first equation Vbar_frame(f) + r = 0 whose remainder r
    V_frame annihilates, or None."""
    for idx, eq in enumerate(sys.equations):
        if eq.frame == frame and eq.unknown == f and _remainder_annihilated(sys, eq, frame, spec):
            return idx
    return None


def apply_rule(sys: PDESystem, rule: str, spec: ManifoldSpec) -> None:
    """One pass of ``rule`` over the unknowns, promoting in place."""
    target = RULES[rule]
    if target == Status.BASE_ONLY:
        frames = spec.fibration.fiber_span
    else:
        frames = range(1, spec.n + 1)
    if not frames:  # an empty frame list would certify every unknown vacuously
        return
    for f in sys.unknowns:
        if sys.statuses[f] >= target:
            continue
        used = []
        for i in frames:
            idx = _certificate(sys, f, i, spec)
            if idx is None:
                break
            used.append(idx)
        else:
            sys.statuses[f] = target
            sys.promotions.append(Promotion(f, target, rule, tuple(used)))


def reduce(sys: PDESystem, spec: ManifoldSpec) -> PDESystem:
    """A copy of ``sys`` with both inference rules applied to a fixpoint."""
    out = PDESystem(
        list(sys.unknowns), list(sys.equations), dict(sys.statuses), list(sys.promotions)
    )
    while True:
        before = dict(out.statuses)
        for rule in RULES:
            apply_rule(out, rule, spec)
        if out.statuses == before:
            return out
