"""Hermitian metrics on a manifold spec: compatibility, and the
almost-Kahler comparison of the two mixed Laplacians.

A metric is held as the n x n Hermitian Gram block H of the (1,0)-coframe.
A compatible fundamental form omega = sum W_jk phi^j ^ conj phi^k has
H = i (W^T)^-1, and the same map sends H back to W, so either manifest
route ([metric] omega or gram) gives both.  Positivity is certified on the
leading principal minors m_k of H.

The flag is decided in the coframe phi' = L^-1 phi of H = L D L^H (L unit
lower triangular, D_k = m_k / m_(k-1)), where the Gram matrix of words is
diagonal with entries g(w), the product of D over the letters of w, so
every Gram adjoint is entrywise.  The flag is an operator identity and the
conjugation of words is the same in every (1,0)-coframe; when L = I the
spec is read as it is.  Each term of a Laplacian holds one adjoint, so a
constant factor on the metric scales both Laplacians alike: D is divided
by D_1, and on a metric proportional to the identity every weight is 1.

Only the dbar+mu Laplacian is built, degree by degree from one operator
O_k = dbar + mu per degree, read once from d and reused as O_(k-1) at the
next degree.  T_k = G_k L_k is Hermitian, and it is formed on its upper
triangle only, as two Gram sums of O_k and O_(k-1) (see
``laplacian_gram``).  It is compared entry by entry with its mirror under
the signed conjugation of words, on degrees 0..n (see
``delta_laplacians_equal``).

The restriction of the L2 adjoint to invariant forms is the Gram adjoint;
this uses that averaging over the compact quotient preserves invariant forms,
which holds on unimodular groups, the only ones with a lattice (Milnor,
Adv. Math. 21, 1976); so does the star duality.  Loading a manifest
enforces that premise (d vanishes on every invariant (2n-1)-form) rather
than assuming it.  The zero-order pieces mu and mubar need no such
argument: their Gram adjoints are their pointwise adjoints.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import itemgetter

from . import linalg
from .algebra import Form, GramData, NotPositive, conj_word, word_bidegree, words_of_degree
from .manifold import ManifoldSpec, _parse_fibration, substitute, substitute_rows
from .scalars import I as IMAG
from .scalars import ONE, ZERO


class NotCompatible(ValueError):
    """The candidate fundamental form is not real of pure type (1,1)."""


@dataclass
class HermitianData:
    gram: GramData
    omega: Form
    is_almost_kahler: bool


def _dual(m, what: str):
    """i (m^T)^-1, which maps the (1,1) coefficients W of omega to the Gram
    block H and, being an involution, H back to W."""
    try:
        inv = linalg.inverse(linalg.transpose(m))
    except ValueError as exc:
        raise NotPositive(f"[metric]: {what} is degenerate ({exc})") from exc
    return [[IMAG * x for x in row] for row in inv]


def _metric(spec: ManifoldSpec, h, omega: Form) -> HermitianData:
    """The metric with Gram block h and fundamental form omega."""
    closed = spec.exterior_d(omega).is_zero()
    return HermitianData(gram=GramData(spec.n, h), omega=omega, is_almost_kahler=closed)


def metric_from_pair(omega: Form, spec: ManifoldSpec) -> HermitianData:
    """Metric g(u, v) = omega(u, Jv) from a compatible fundamental 2-form
    omega = sum W_jk phi^j ^ conj phi^k; its Gram block is H = i (W^T)^-1."""
    if omega.degree() != 2:
        raise NotCompatible("fundamental form must be a 2-form")
    if not (omega - omega.conj()).is_zero():
        raise NotCompatible("fundamental form must be real")
    parts = omega.bidegree_split()
    if set(parts) != {(1, 1)}:
        raise NotCompatible("fundamental form has a component outside type (1,1)")
    n = spec.n
    idx = range(1, n + 1)
    w = [[omega.coefficient((j, n + k)) for k in idx] for j in idx]
    return _metric(spec, _dual(w, "omega"), omega)


def metric_from_gram(h, spec: ManifoldSpec) -> HermitianData:
    """Metric from an explicit Hermitian Gram matrix H on the (1,0)-coframe;
    its fundamental form has (1,1) coefficients W = i (H^T)^-1."""
    n = spec.n
    w = _dual(h, "gram")
    omega = Form.zero(n)
    for j, row in enumerate(w, start=1):
        for k, c in enumerate(row, start=n + 1):
            omega = omega + Form.monomial(n, (j, k), c)
    return _metric(spec, h, omega)


def metric_for(spec: ManifoldSpec) -> HermitianData:
    """Build the metric declared by the manifest."""
    if spec.metric_source is None:
        raise ValueError(f"manifest {spec.name!r} declares no metric")
    kind, payload = spec.metric_source
    if kind == "omega":
        return metric_from_pair(payload, spec)
    return metric_from_gram(payload, spec)


# -- the Laplacian flag in an orthogonal coframe ---------------------------


def _rebased(spec: ManifoldSpec, l) -> ManifoldSpec:
    """The spec in the coframe phi' = L^-1 phi: phi = L phi' substituted into
    each d phi^j, and L^-1 applied outside.  The flag reads neither metric
    nor fibration, so it keeps none."""
    n = spec.n
    images = [Form(n, {(c,): x for c, x in enumerate(row, 1) if not x.is_zero()}) for row in l]
    images += [phi.conj() for phi in images]
    dphi = substitute_rows(linalg.inverse(l), dict(enumerate(spec.dphi, 1)), images)
    e_forms = [substitute(images, spec.e_form(k)) for k in range(1, 2 * n + 1)]
    return ManifoldSpec(
        spec.name, n, spec.params, dphi, e_forms, None,
        _parse_fibration((), spec.params, n), spec.section, spec.symbol,
    )


def _frame(h: HermitianData, spec: ManifoldSpec):
    """The spec read in a coframe where its metric is diagonal, and the
    weights D / D_1 of that diagonal, or None when all are 1."""
    l, d = h.gram.ldl()
    if any(not x.is_zero() for i, row in enumerate(l) for x in row[:i]):
        spec = _rebased(spec, l)
    weights = [x / d[0] for x in d]
    return spec, None if all(x == ONE for x in weights) else weights


def word_weights(weights, n: int) -> list:
    """For each degree -1..n+1, g(w) = the product of the weights of the
    letters of w over the words of that degree in sorted order; a letter
    and its conjugate weigh the same.  There are no (-1)-forms."""
    return [[]] + [
        [prod((weights[(j - 1) % n] for j in w), start=ONE) for w in words_of_degree(n, k)]
        for k in range(n + 2)
    ]


def deltabar_operator(spec: ManifoldSpec, k: int) -> list:
    """O_k = dbar + mu from invariant k-forms to (k+1)-forms, words in
    sorted order.  Column a is d(a) restricted to bidegrees (p, q+1) and
    (p+2, q-1): the words whose count of unbarred letters differs from a's
    by an even number.  Each column is [(row, x, conj x)] for the nonzero
    entries x, in row order."""
    n = spec.n
    rows = {w: i for i, w in enumerate(words_of_degree(n, k + 1))}
    out = []
    for w in words_of_degree(n, k):
        p = word_bidegree(w, n)[0]
        col = [
            (rows[m], x, x.conj())
            for m, x in spec.d_word(w).coeffs.items()
            if (word_bidegree(m, n)[0] - p) % 2 == 0
        ]
        col.sort(key=itemgetter(0))
        out.append(col)
    return out


def _add_gram_sum(t: dict, vector: list, weight) -> None:
    """t[a, b] += weight left_a right_b over the pairs a <= b of ``vector``,
    a list [(a, left_a, right_a)] in the order of a; a weight None is 1."""
    for i, (a, left, _) in enumerate(vector):
        if weight is not None:
            left = left * weight
        for b, _, right in vector[i:]:
            s = t.get((a, b))
            t[a, b] = left * right if s is None else s + left * right


def laplacian_gram(o_prev: list, o: list, g=None) -> dict:
    """T = G L_deltabar on invariant k-forms, from O = O_k and O' = O_(k-1)
    (see ``deltabar_operator``), as {(a, b): entry} for a <= b only.

    L = O* O + O' O'*, and in an orthogonal coframe each Gram adjoint is
    entrywise, so T is two Gram sums:

        T[a][b] = sum_m g(m) conj(O[m][a]) O[m][b]
                + g(a) g(b) sum_s O'[a][s] conj(O'[b][s]) / g(s).

    L is self-adjoint, so T is Hermitian and T[b][a] = conj T[a][b] is not
    formed.  ``g`` holds the word weights of degrees k-1, k and k+1, or is
    None when all are 1.  An entry that no term reaches is absent (zero)."""
    t: dict = {}
    rows: dict = {}
    for a, col in enumerate(o):
        for m, x, xc in col:
            rows.setdefault(m, []).append((a, xc, x))
    for m, vector in rows.items():
        _add_gram_sum(t, vector, None if g is None else g[2][m])
    for s, col in enumerate(o_prev):
        if g is not None:
            col = [(a, y * g[1][a], yc * g[1][a]) for a, y, yc in col]
        _add_gram_sum(t, col, None if g is None else g[0][s].inv())
    return t


def delta_laplacians_equal(h: HermitianData, spec: ManifoldSpec) -> bool:
    """Whether the two mixed Laplacians coincide on every invariant degree.

    Only L_deltabar is built, in an orthogonal coframe, as T = G L_deltabar.
    d and the metric are real, so L_delta = C L_deltabar C with C the
    signed conjugation of words, and G commutes with C (g(c(w)) = g(w), g
    real): the Laplacians agree at degree k exactly when T[a][b] = s_a s_b
    conj(T[c(a)][c(b)]) for all a, b.  C is an involution, so each mirror
    pair of entries is compared once, and an entry absent on one side is
    zero.  O_k is built once and serves as O_(k-1) at degree k + 1.

    Only degrees 0..n are compared.  The complex-linear star maps (p, q) to
    (n-q, n-p), and on a unimodular group dbar* = -star del star and mu* =
    -star mubar star, so star L_deltabar = L_delta star from degree k to
    2n - k: the Laplacians agree at k exactly when they agree at 2n - k."""
    spec, weights = _frame(h, spec)
    n = spec.n
    g = None if weights is None else word_weights(weights, n)
    o_prev: list = []
    for k in range(n + 1):
        o = deltabar_operator(spec, k)
        t = laplacian_gram(o_prev, o, None if g is None else g[k : k + 3])
        o_prev = o
        words = words_of_degree(n, k)
        index = {w: i for i, w in enumerate(words)}
        conj = [(sign, index[cw]) for sign, cw in (conj_word(w, n) for w in words)]
        for (a, b), x in t.items():
            (sa, ca), (sb, cb) = conj[a], conj[b]
            # T[c(a)][c(b)] is stored as conj T[c(b)][c(a)] when c(a) > c(b)
            mirror = (ca, cb) if ca <= cb else (cb, ca)
            y = t.get(mirror)
            if y is None:
                y = ZERO
            elif mirror < (a, b):
                continue  # compared from the other side
            elif ca <= cb:
                y = y.conj()
            if x != (y if sa == sb else -y):
                return False
    return True
