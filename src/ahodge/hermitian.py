"""Hermitian metrics on a manifold spec: compatibility, and the
almost-Kahler comparison of the two mixed Laplacians.

A metric is held as the n x n Hermitian Gram block H of the (1,0)-coframe.
A compatible fundamental form omega = sum W_jk phi^j ^ conj phi^k has
H = i (W^T)^-1, and the same map sends H back to W, so either manifest
route ([metric] omega or gram) gives both.  Positivity is certified on the
leading principal minors m_k of H.

Forms of different bidegree are orthogonal, so a Laplacian is assembled
block by block from the four pieces of d and their Gram adjoints A =
conj(G_src)^-1 M^H conj(G_tgt), which satisfy <Mx, y> = <x, Ay> exactly.
The flag builds them in the coframe phi' = L^-1 phi of H = L D L^H (L unit
lower triangular, D_k = m_k / m_(k-1)), where the Gram block of words is
diagonal with entries g(w), the product of D over the letters of w, so the
adjoint of a piece X is entrywise: X*[u][v] = conj(X[v][u]) g(v) / g(u).
The flag is an operator identity and the conjugation of words is the same
in every (1,0)-coframe; when L = I the spec is read as it is.  Each term
of a Laplacian holds one adjoint, so a constant factor on the metric
scales both Laplacians alike: D is divided by D_1, and on a metric
proportional to the identity each adjoint is a conjugate transpose.  The
pieces are read once into sparse rows {column: nonzero}.

Only the dbar+mu Laplacian is built, and it is compared with its mirror
under the signed conjugation of words, entry by entry, on degrees 0..n
(see ``delta_laplacians_equal``).

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
from itertools import product
from math import prod

from . import linalg
from .algebra import Form, GramData, NotPositive, conj_word
from .manifold import BIDEGREE_SHIFTS, ManifoldSpec, _parse_fibration, substitute, substitute_rows
from .scalars import I as IMAG
from .scalars import ONE


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


def _bidegrees(n: int, k: int):
    return [(p, k - p) for p in range(max(0, k - n), min(k, n) + 1)]


def _shift(pq, which: str, sign: int = 1):
    dp, dq = BIDEGREE_SHIFTS[which]
    return (pq[0] + sign * dp, pq[1] + sign * dq)


def _bar(pq):
    return (pq[1], pq[0])


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


class _Frame:
    """A spec read in a coframe where its metric is diagonal: the pieces of
    d as sparse rows {column: nonzero}, each read once, and their entrywise
    Gram adjoints.  ``weights`` are D / D_1, or None when all are 1."""

    def __init__(self, h: HermitianData, spec: ManifoldSpec):
        l, d = h.gram.ldl()
        l_is_identity = all(x.is_zero() for i, row in enumerate(l) for x in row[:i])
        self.spec = spec if l_is_identity else _rebased(spec, l)
        weights = [x / d[0] for x in d]
        self.weights = None if all(x == ONE for x in weights) else weights
        self._pieces: dict = {}
        self._adjoints: dict = {}

    def piece(self, which: str, pq):
        """The piece ``which`` of d on block pq, or None when it is absent."""
        if (which, pq) not in self._pieces:
            m = self.spec.piece_matrices(pq).get(which)
            self._pieces[which, pq] = None if m is None else [
                {j: x for j, x in enumerate(row) if not x.is_zero()} for row in m
            ]
        return self._pieces[which, pq]

    def adjoint(self, which: str, pq):
        """Gram adjoint of the piece ``which`` on block pq, from block pq +
        shift back to pq: X*[u][v] = conj(X[v][u]) g(v) / g(u)."""
        if (which, pq) not in self._adjoints:
            x = self.piece(which, pq)
            adj = None
            if x is not None:
                adj = [{} for _ in self.spec.block_words(*pq)]
                g_src, g_tgt = self._word_weights(pq), self._word_weights(_shift(pq, which))
                for v, row in enumerate(x):
                    for u, c in row.items():
                        adj[u][v] = c.conj() if g_src is None else c.conj() * g_tgt[v] / g_src[u]
            self._adjoints[which, pq] = adj
        return self._adjoints[which, pq]

    def _word_weights(self, pq):
        """g(w) = the product of the weights of the letters of w, for the
        words of block pq; a letter and its conjugate weigh the same."""
        if self.weights is None:
            return None
        n = self.spec.n
        return [
            prod((self.weights[(j - 1) % n] for j in w), start=ONE)
            for w in self.spec.block_words(*pq)
        ]


def _add_product(blocks: dict, key, a, b):
    """blocks[key] += a b on sparse rows: zeros are skipped, a first product
    is stored without a sum, and an entry that sums to zero is dropped."""
    out = blocks.get(key)
    if out is None:
        out = blocks[key] = [{} for _ in a]
    for acc, row in zip(out, a):
        for k, x in row.items():
            for j, y in b[k].items():
                s = acc.pop(j, None)
                s = x * y if s is None else s + x * y
                if not s.is_zero():
                    acc[j] = s


def laplacian_blocks(frame: _Frame, k: int) -> dict:
    """L_deltabar = O O* + O* O on invariant k-forms of the frame, O = dbar +
    mu, as {(target bidegree, source bidegree): sparse rows}; blocks that no
    term reaches are absent (zero).

    The Laplacian is the sum over pairs of pieces X, Y of X Y* + X* Y, and
    each such term maps one bidegree block into one other."""
    blocks: dict = {}
    parts = ("dbar", "mu")
    for src, x, y in product(_bidegrees(frame.spec.n, k), parts, parts):
        # X Y*: src -> mid = src - shift(Y) -> mid + shift(X)
        mid = _shift(src, y, -1)
        x_mat, y_adj = frame.piece(x, mid), frame.adjoint(y, mid)
        if x_mat is not None and y_adj is not None:
            _add_product(blocks, (_shift(mid, x), src), x_mat, y_adj)
        # X* Y: src -> src + shift(Y) -> back by shift(X)
        back = _shift(_shift(src, y), x, -1)
        y_mat, x_adj = frame.piece(y, src), frame.adjoint(x, back)
        if y_mat is not None and x_adj is not None:
            _add_product(blocks, (back, src), x_adj, y_mat)
    return blocks


def _conjugation(spec: ManifoldSpec, pq) -> list:
    """C on block pq: for each word, its sign and the position of its
    conjugate word in block (q, p)."""
    index = {w: i for i, w in enumerate(spec.block_words(*_bar(pq)))}
    out = []
    for w in spec.block_words(*pq):
        sign, cw = conj_word(w, spec.n)
        out.append((sign, index[cw]))
    return out


def _is_mirror(mine, mirror, conj_tgt, conj_src) -> bool:
    """Whether block ``mine`` is C ``mirror`` C, entry by entry: entry (u, w)
    is s_u s_w conj(mirror[c(u)][c(w)]), and an entry missing on one side is
    a difference."""
    for row, (su, cu) in zip(mine, conj_tgt):
        other = mirror[cu]
        if len(row) != len(other):
            return False
        for w, x in row.items():
            sw, cw = conj_src[w]
            if other.get(cw) != (x.conj() if su == sw else -x.conj()):
                return False
    return True


def delta_laplacians_equal(h: HermitianData, spec: ManifoldSpec) -> bool:
    """Whether the two mixed Laplacians coincide on every invariant degree.

    Only L_deltabar is built, in an orthogonal coframe.  d and the metric
    are real, so L_delta = C L_deltabar C with C the signed conjugation of
    words: block (t, s) of L_delta has entries s_u s_w conj(L_deltabar[(bar
    t, bar s)][c(u)][c(w)]), where bar (p, q) = (q, p).  A block absent on
    one side must be zero.  C is an involution, so block (t, s) decides
    (bar t, bar s) too.

    Only degrees 0..n are compared.  The complex-linear star maps (p, q) to
    (n-q, n-p), and on a unimodular group dbar* = -star del star and mu* =
    -star mubar star, so star L_deltabar = L_delta star from degree k to
    2n - k: the Laplacians agree at k exactly when they agree at 2n - k."""
    frame = _Frame(h, spec)
    conj: dict = {}
    for k in range(spec.n + 1):
        blocks = laplacian_blocks(frame, k)
        for tgt, src in sorted(blocks.keys() | {(_bar(t), _bar(s)) for t, s in blocks}):
            if (tgt, src) > (_bar(tgt), _bar(src)):
                continue
            mine = blocks.get((tgt, src))
            mirror = blocks.get((_bar(tgt), _bar(src)))
            if mine is None or mirror is None:
                if any(mine or mirror):
                    return False
                continue
            for pq in (tgt, src):
                if pq not in conj:
                    conj[pq] = _conjugation(spec, pq)
            if not _is_mirror(mine, mirror, conj[tgt], conj[src]):
                return False
    return True
