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
conjugation of words is the same in every (1,0)-coframe, so only the
images d phi'^a of the generators are rewritten, and when L = I they are
read as declared.  Each term of a Laplacian holds one adjoint, so a
constant factor on the metric scales both Laplacians alike: D is divided
by D_1, and on a metric proportional to the identity every weight is 1.

Only the dbar+mu Laplacian is built, as T_k = G_k L_k, from one operator
O_k = dbar + mu per degree (reused as O_(k-1) at the next): the Leibniz
rule on the images of the generators, whose coefficients are interned by
value up to sign as symbols v_x.  So T is held as integer coefficients of
the products conj(v_x) v_y and compared with its mirror under the signed
conjugation of words as integers, on degrees 0..n.  Only an entry whose
integers differ is evaluated exactly, and it decides the flag.

Those integers depend on n, the weights and the pattern of the images
(which symbol each holds, with which sign), not on the symbols' values, so
the last SKELETONS keys (n, pattern, weights) keep them, each degree built
when the flag first reaches it; a new key costs what no memo would.

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
from functools import lru_cache
from math import prod
from threading import Lock

from . import linalg
from .algebra import Form, GramData, NotPositive, conj_word, leibniz, word_bidegree, words_of_degree
from .manifold import ManifoldSpec, substitute_rows
from .scalars import I as IMAG
from .scalars import ONE, ZERO, Scalar


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
    except linalg.Singular as exc:
        raise NotPositive(f"[metric]: {what} is degenerate ({exc})") from exc
    return [[IMAG * x for x in row] for row in inv]


def _metric(spec: ManifoldSpec, h, omega: Form, closed: bool) -> HermitianData:
    """The metric with Gram block h, fundamental form omega and the verdict
    ``closed`` on d omega = 0."""
    return HermitianData(gram=GramData(spec.n, h), omega=omega, is_almost_kahler=closed)


def _pair_gram(omega: Form, spec: ManifoldSpec):
    """The Gram block H = i (W^T)^-1 of a compatible fundamental form."""
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
    return _dual(w, "omega")


def metric_from_gram(h, spec: ManifoldSpec) -> HermitianData:
    """Metric from an explicit Hermitian Gram matrix H on the (1,0)-coframe;
    its fundamental form has (1,1) coefficients W = i (H^T)^-1."""
    n = spec.n
    w = _dual(h, "gram")
    omega = Form.zero(n)
    for j, row in enumerate(w, start=1):
        for k, c in enumerate(row, start=n + 1):
            omega = omega + Form.monomial(n, (j, k), c)
    return _metric(spec, h, omega, spec.exterior_d(omega).is_zero())


def metric_for(spec: ManifoldSpec) -> HermitianData:
    """Build the metric declared by the manifest."""
    if spec.metric_source is None:
        raise ValueError(f"manifest {spec.name!r} declares no metric")
    kind, payload = spec.metric_source
    if kind == "omega":
        real = spec.real_omega  # on [coframe], d omega = 0 is read on the declared form
        if real is None:
            closed = spec.exterior_d(payload).is_zero()
        else:
            closed = spec.real_closed([real.coeffs])
        return _metric(spec, _pair_gram(payload, spec), payload, closed)
    return metric_from_gram(payload, spec)


# -- the Laplacian flag in an orthogonal coframe ---------------------------


def _rebased(spec: ManifoldSpec, l) -> list:
    """d phi'^a for a in 1..2n, the conjugates after phi'^1..phi'^n, in the
    coframe phi' = L^-1 phi: L^-1 applied to the d phi^j, and phi = L phi'
    substituted into each sum.  d^2 = 0 and unimodularity hold in every constant
    coframe once they hold in one, so nothing is validated again."""
    n = spec.n
    images = [Form(n, {(c,): x for c, x in enumerate(row, 1) if not x.is_zero()}) for row in l]
    images += [phi.conj() for phi in images]
    dphi = substitute_rows(linalg.inverse(l), dict(enumerate(spec.dphi, 1)), images)
    return dphi + [f.conj() for f in dphi]


def _frame(h: HermitianData, spec: ManifoldSpec):
    """d phi^1..d phi^2n in a coframe where the metric is diagonal, and the
    weights D / D_1 of that diagonal, or None when all are 1."""
    l, d = h.gram.ldl()
    if any(not x.is_zero() for i, row in enumerate(l) for x in row[:i]):
        dgen = _rebased(spec, l)
    else:
        dgen = [spec.d_generator(a) for a in range(1, 2 * spec.n + 1)]
    weights = [x / d[0] for x in d]
    return dgen, None if all(x == ONE for x in weights) else weights


def word_weights(weights, n: int) -> list:
    """For each degree -1..n+1, g(w) = the product of the weights of the
    letters of w over the words of that degree in sorted order; a letter
    and its conjugate weigh the same.  There are no (-1)-forms."""
    return [[]] + [
        [prod((weights[(j - 1) % n] for j in w), start=ONE) for w in words_of_degree(n, k)]
        for k in range(n + 2)
    ]


@lru_cache(maxsize=None)
def _word_table(n: int, k: int):
    """Words of degree k, sorted; their index; [(s_w, index of c(w))]."""
    words = words_of_degree(n, k)
    index = {w: i for i, w in enumerate(words)}
    return words, index, [(sign, index[cw]) for sign, cw in (conj_word(w, n) for w in words)]


def interned_images(dgen: list, n: int):
    """({a: {2-word: (sign, symbol)}}, symbol values) from ``dgen`` = [d
    phi^1, ..., d phi^2n]: the (1,1) part of d phi^a and the (2,0) + (0,2)
    part of d conj phi^a, which are their images under dbar + mu, with each
    coefficient interned by value up to sign."""
    symbols: dict = {}
    images: dict = {}
    for a, f in enumerate(dgen, 1):
        images[a] = {}
        for head, c in f.coeffs.items():
            if (word_bidegree(head, n)[0] - (a <= n)) % 2 == 0:
                x = symbols.get(c)
                if x is not None:
                    images[a][head] = (1, x)
                elif (x := symbols.get(-c)) is not None:
                    images[a][head] = (-1, x)
                else:
                    images[a][head] = (1, symbols.setdefault(c, len(symbols)))
    return images, list(symbols)


def deltabar_operator(images, n: int, k: int) -> list:
    """O_k = dbar + mu on invariant k-forms by the Leibniz rule on
    ``interned_images``: column a is [(row, [(symbol, nonzero integer)])]
    in row order, words in sorted order."""
    rows = _word_table(n, k + 1)[1]
    out = []
    for w in _word_table(n, k)[0]:
        terms: dict = {}
        for m, sign, (s, x) in leibniz(w, images):
            key = (rows[m], x)
            terms[key] = terms.get(key, 0) + sign * s
        col: dict = {}
        for (m, x), c in sorted(terms.items()):
            if c:
                col.setdefault(m, []).append((x, c))
        out.append(list(col.items()))
    return out


def laplacian_gram(o_prev: list, o: list, g=None) -> dict:
    """T = G L_deltabar, L = O* O + O' O'* for O = O_k and O' = O_(k-1), on
    a <= b only (T is Hermitian), as integer coefficients {(a, b, x, y, w):
    c} of conj(v_x) v_y.  Gram adjoints are entrywise, so T is two sums:

        T[a][b] = sum_m g(m) conj(O[m][a]) O[m][b]
                + g(a) g(b) sum_s O'[a][s] conj(O'[b][s]) / g(s).

    ``g`` holds the word weights of degrees k-1..k+1, or None when all are
    1; w is then None, else (0, g(m)) or (1, g(s)) (see ``gram_entry``)."""
    rows: dict = {}
    for a, col in enumerate(o):
        for m, entry in col:
            rows.setdefault(m, []).append((a, entry))
    sums = [(v, None if g is None else (0, g[2][m]), False) for m, v in rows.items()]
    sums += [(v, None if g is None else (1, g[0][s]), True) for s, v in enumerate(o_prev)]
    t: dict = {}
    for vector, w, swap in sums:  # vector [(a, entry)] in the order of a
        for i, (a, left) in enumerate(vector):
            for b, right in vector[i:]:
                for x, c in left:
                    for y, d in right:
                        key = (a, b, y, x, w) if swap else (a, b, x, y, w)
                        t[key] = t.get(key, 0) + c * d
    return t


def mirror_difference(t: dict, n: int, k: int) -> dict:
    """The nonzero integer coefficients of T[a][b] - s_a s_b conj(T[c(a)]
    [c(b)]) as {(a, b): [(x, y, w, c)]}, on one entry of each mirror pair.
    T[c(b)][c(a)] is stored when c(a) > c(b), so the mirror of key (a, b,
    x, y, w) is (c(a), c(b), y, x, w) if c(a) <= c(b), else (c(b), c(a), x,
    y, w)."""
    conj = _word_table(n, k)[2]
    diff: dict = {}
    for (a, b, x, y, w), c in t.items():
        (sa, ca), (sb, cb) = conj[a], conj[b]
        mirror = (ca, cb, y, x, w) if ca <= cb else (cb, ca, x, y, w)
        if (a, b) <= mirror[:2]:
            diff[a, b, x, y, w] = diff.get((a, b, x, y, w), 0) + c
        if mirror[:2] <= (a, b):
            diff[mirror] = diff.get(mirror, 0) - (c if sa == sb else -c)
    out: dict = {}
    for (a, b, x, y, w), c in diff.items():
        if c:
            out.setdefault((a, b), []).append((x, y, w, c))
    return out


def gram_entry(terms, values: list, products: dict, g_ab=None):
    """Exactly, sum c conj(v_x) v_y W over ``terms`` [(x, y, w, c)]: W is 1,
    g(m) or g_ab / g(s) for w None, (0, g(m)) or (1, g(s)), g_ab = g(a)
    g(b).  ``products`` keeps each conj(v_x) v_y once formed."""
    total = ZERO
    for x, y, w, c in terms:
        p = products.get((x, y))
        if p is None:
            p = products[x, y] = values[x].conj() * values[y]
        if w is not None:
            p = p * (g_ab / w[1] if w[0] else w[1])
        total = total + (p if c == 1 else -p if c == -1 else p * Scalar.integer(c))
    return total


# keys kept, each a few KB; a `tables` pass meets 7
SKELETONS = 32


class _Skeleton:
    """The value-free part of the flag for one pattern of generator images
    and one set of weights: for each degree k, [(g(a) g(b), terms)] over
    the nonzero mirror differences of T_k (g(a) g(b) is None when every
    weight is 1), built in degree order when the flag first reaches k."""

    def __init__(self, n: int, pattern: tuple, weights):
        self.n = n
        self.images = {a: dict(image) for a, image in enumerate(pattern, 1)}
        self.g = None if weights is None else word_weights(weights, n)
        self.degrees: list = []
        self.o_prev: list = []  # O_(k-1) until degree n is built
        self.lock = Lock()  # reports in several threads may share a key

    def degree(self, k: int) -> list:
        n, g = self.n, self.g
        with self.lock:
            while len(self.degrees) <= k:
                j = len(self.degrees)
                o = deltabar_operator(self.images, n, j)
                t = laplacian_gram(self.o_prev, o, None if g is None else g[j : j + 3])
                self.o_prev = o if j < n else []
                self.degrees.append([
                    (None if g is None else g[j + 1][a] * g[j + 1][b], terms)
                    for (a, b), terms in mirror_difference(t, n, j).items()
                ])
        return self.degrees[k]


_skeleton = lru_cache(maxsize=SKELETONS)(_Skeleton)  # one per (n, pattern, weights)


def delta_laplacians_equal(h: HermitianData, spec: ManifoldSpec) -> bool:
    """Whether the two mixed Laplacians coincide on every invariant degree.

    Only L_deltabar is built, in an orthogonal coframe, as T = G L_deltabar.
    d and the metric are real, so L_delta = C L_deltabar C with C the
    signed conjugation of words, and G commutes with C (g(c(w)) = g(w), g
    real): the Laplacians agree at degree k exactly when T[a][b] = s_a s_b
    conj(T[c(a)][c(b)]) for all a, b, certified by equal integer
    coefficients or, where those differ, by exact evaluation on this
    point's symbol values.

    Only degrees 0..n are compared.  The complex-linear star maps (p, q) to
    (n-q, n-p), and on a unimodular group dbar* = -star del star and mu* =
    -star mubar star, so star L_deltabar = L_delta star from degree k to
    2n - k: the Laplacians agree at k exactly when they agree at 2n - k."""
    n = spec.n
    dgen, weights = _frame(h, spec)
    images, values = interned_images(dgen, n)
    pattern = tuple(tuple(sorted(images[a].items())) for a in range(1, 2 * n + 1))
    skeleton = _skeleton(n, pattern, None if weights is None else tuple(weights))
    products: dict = {}  # conj(v_x) v_y once formed
    for k in range(n + 1):
        for g_ab, terms in skeleton.degree(k):
            if not gram_entry(terms, values, products, g_ab).is_zero():
                return False
    return True
