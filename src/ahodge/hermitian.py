"""Hermitian metrics on a manifold spec: compatibility, Gram adjoints,
invariant-form Laplacians, and the almost-Kahler comparison of the two
mixed Laplacians.

A metric is held as the n x n Hermitian Gram block H of the (1,0)-coframe.
A compatible fundamental form omega = sum W_jk phi^j ^ conj phi^k has
H = i (W^T)^-1, and the same map sends H back to W, so either manifest
route ([metric] omega or gram) gives both.  Positivity is certified on the
leading principal minors of H.

Adjoints are pure Gram-matrix linear algebra: A = conj(G_src)^-1 M^H conj(G_tgt)
satisfies <Mx, y> = <x, Ay> exactly on invariant forms, with no Hodge star
and no sign conventions.  The (dbar+mu)-harmonic filter in ``fourier`` takes
the adjoint of mu from here; the test suite checks it against the star
criterion mubar(star psi) = 0.

A compatible metric makes forms of different bidegree orthogonal, so every
Laplacian is assembled from the four bidegree-homogeneous pieces of d and
their adjoints, block by block.  By Cauchy-Binet the Gram block of
bidegree (p, q) is C_p(H) (x) conj C_q(H), with C_p the compound matrix of
p x p minors, and its conjugate has inverse conj C_p(H^-1) (x) C_q(H^-1):
H^-1 = -i W^T comes with the metric, so the one n x n inverse per metric
is the map between W and H, and it serves every block.  Only the dbar+mu
Laplacian is built for a report: d and the metric are real, so the
del+mubar Laplacian is its conjugate under the signed conjugation of words,
and the two are compared through that conjugation, once per pair of
mirror blocks and on degrees 0..n only: the complex-linear star
intertwines star L_deltabar = L_delta star from degree k to 2n - k.

The restriction of the L2 adjoint to invariant forms is the Gram adjoint;
this uses that averaging over the compact quotient preserves invariant forms,
which holds on unimodular groups, the only ones with a lattice (Milnor,
Adv. Math. 21, 1976); so does the star duality.  Loading a manifest
enforces that premise (d vanishes on every invariant (2n-1)-form) rather
than assuming it.  The zero-order pieces mu and mubar need no such
argument: their Gram adjoints are their pointwise adjoints.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .algebra import Form, GramData, NotPositive, conj_word
from .manifold import BIDEGREE_SHIFTS, ManifoldSpec
from .scalars import I as IMAG


class NotCompatible(ValueError):
    """The candidate fundamental form is not real of pure type (1,1)."""


class NotAlmostKahler(ValueError):
    """Operation requires a closed fundamental form."""


@dataclass
class HermitianData:
    gram: GramData
    omega: Form
    is_almost_kahler: bool
    _adj_cache: dict = field(default_factory=dict, repr=False)


def _dual(m, what: str):
    """i (m^T)^-1, which maps the (1,1) coefficients W of omega to the Gram
    block H and, being an involution, H back to W."""
    try:
        inv = linalg.inverse(linalg.transpose(m))
    except ValueError as exc:
        raise NotPositive(f"[metric]: {what} is degenerate ({exc})") from exc
    return [[IMAG * x for x in row] for row in inv]


def _metric(spec: ManifoldSpec, h, w, omega: Form) -> HermitianData:
    """The metric with Gram block h and fundamental form omega, whose (1,1)
    coefficients w give h^-1 = -i w^T with no further inverse."""
    closed = spec.exterior_d(omega).is_zero()
    h_inverse = [[-(IMAG * x) for x in row] for row in linalg.transpose(w)]
    return HermitianData(gram=GramData(spec.n, h, h_inverse), omega=omega, is_almost_kahler=closed)


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
    return _metric(spec, _dual(w, "omega"), w, omega)


def metric_from_gram(h, spec: ManifoldSpec) -> HermitianData:
    """Metric from an explicit Hermitian Gram matrix H on the (1,0)-coframe;
    its fundamental form has (1,1) coefficients W = i (H^T)^-1."""
    n = spec.n
    w = _dual(h, "gram")
    omega = Form.zero(n)
    for j, row in enumerate(w, start=1):
        for k, c in enumerate(row, start=n + 1):
            omega = omega + Form.monomial(n, (j, k), c)
    return _metric(spec, h, w, omega)


def metric_for(spec: ManifoldSpec) -> HermitianData:
    """Build the metric declared by the manifest."""
    if spec.metric_source is None:
        raise ValueError(f"manifest {spec.name!r} declares no metric")
    kind, payload = spec.metric_source
    if kind == "omega":
        return metric_from_pair(payload, spec)
    return metric_from_gram(payload, spec)


# -- adjoints and Laplacians on invariant forms -------------------------


def _bidegrees(n: int, k: int):
    return [(p, k - p) for p in range(max(0, k - n), min(k, n) + 1)]


def _shift(pq, which: str, sign: int = 1):
    dp, dq = BIDEGREE_SHIFTS[which]
    return (pq[0] + sign * dp, pq[1] + sign * dq)


def piece_adjoint(which: str, pq, h: HermitianData, spec: ManifoldSpec):
    """Gram adjoint of one piece of d on block pq: a map from block
    pq + shift back to pq, or None when the piece is absent."""
    key = (which, pq)
    if key in h._adj_cache:
        return h._adj_cache[key]
    m = spec.piece_matrices(pq).get(which)
    adj = None
    if m is not None:
        adj = linalg.mat_mul(
            h.gram.conj_block_inverse(*pq),
            linalg.mat_mul(linalg.conj_transpose(m), h.gram.conj_block(*_shift(pq, which))),
        )
    h._adj_cache[key] = adj
    return adj


def _add_block(blocks: dict, key, term):
    prev = blocks.get(key)
    blocks[key] = term if prev is None else linalg.mat_add(prev, term)


def laplacian_blocks(parts, h: HermitianData, spec: ManifoldSpec, k: int) -> dict:
    """O O* + O* O on invariant k-forms, for O the sum of the pieces of d
    named in ``parts``, as {(target bidegree, source bidegree): matrix};
    blocks that no term reaches are absent (zero).

    The Laplacian is the sum over pairs of pieces X, Y of X Y* + X* Y, and
    each such term maps one bidegree block into one other."""
    blocks: dict = {}
    for src in _bidegrees(spec.n, k):
        for x in parts:
            for y in parts:
                # X Y*: src -> mid = src - shift(Y) -> mid + shift(X)
                mid = _shift(src, y, -1)
                x_mat = spec.piece_matrices(mid).get(x)
                y_adj = piece_adjoint(y, mid, h, spec)
                if x_mat is not None and y_adj is not None:
                    _add_block(blocks, (_shift(mid, x), src), linalg.mat_mul(x_mat, y_adj))
                # X* Y: src -> src + shift(Y) -> back by shift(X)
                y_mat = spec.piece_matrices(src).get(y)
                back = _shift(_shift(src, y), x, -1)
                x_adj = piece_adjoint(x, back, h, spec)
                if y_mat is not None and x_adj is not None:
                    _add_block(blocks, (back, src), linalg.mat_mul(x_adj, y_mat))
    return blocks


def _bar(pq):
    return (pq[1], pq[0])


def _conjugation(spec: ManifoldSpec, pq) -> list:
    """C on block pq: for each word, its sign and the position of its
    conjugate word in block (q, p)."""
    index = {w: i for i, w in enumerate(spec.block_words(*_bar(pq)))}
    out = []
    for w in spec.block_words(*pq):
        sign, cw = conj_word(w, spec.n)
        out.append((sign, index[cw]))
    return out


def delta_laplacians_equal(h: HermitianData, spec: ManifoldSpec) -> bool:
    """Whether the two mixed Laplacians coincide on every invariant degree.

    Only L_deltabar is built.  d and the metric are real, so L_delta =
    C L_deltabar C with C the signed conjugation of words: block (t, s) of
    L_delta has entries s_u s_w conj(L_deltabar[(bar t, bar s)][c(u)][c(w)]),
    where bar (p, q) = (q, p).  A block absent on one side must be zero.
    C is an involution, so block (t, s) decides (bar t, bar s) too.

    Only degrees 0..n are compared.  The complex-linear star maps (p, q) to
    (n-q, n-p), and on a unimodular group dbar* = -star del star and mu* =
    -star mubar star, so star L_deltabar = L_delta star from degree k to
    2n - k: the Laplacians agree at k exactly when they agree at 2n - k."""
    conj: dict = {}
    for k in range(spec.n + 1):
        blocks = laplacian_blocks(("dbar", "mu"), h, spec, k)
        for tgt, src in sorted(blocks.keys() | {(_bar(t), _bar(s)) for t, s in blocks}):
            if (tgt, src) > (_bar(tgt), _bar(src)):
                continue
            mine = blocks.get((tgt, src))
            mirror = blocks.get((_bar(tgt), _bar(src)))
            if mine is None or mirror is None:
                if not linalg.is_zero_matrix(mine or mirror):
                    return False
                continue
            for pq in (tgt, src):
                if pq not in conj:
                    conj[pq] = _conjugation(spec, pq)
            delta = [
                [
                    mirror[cu][cw].conj() if su == sw else -mirror[cu][cw].conj()
                    for sw, cw in conj[src]
                ]
                for su, cu in conj[tgt]
            ]
            if not linalg.mat_eq(mine, delta):
                return False
    return True


def check_ak_identity(h: HermitianData, spec: ManifoldSpec) -> bool:
    """Exact matrix identity between the two mixed Laplacians; only
    meaningful (and only claimed) for almost-Kahler metrics."""
    if not h.is_almost_kahler:
        raise NotAlmostKahler("fundamental form is not closed")
    return delta_laplacians_equal(h, spec)
