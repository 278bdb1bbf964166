"""Shared test helpers: clearing what a process keeps across loads, compact
word/form builders, span comparison, the linear-algebra and promotion
checks only tests need (the dense row reduction among them), the
all-minors oracle for the mode search and the rank-1/2 reference for its
integer solver, dense and all-degree oracles for
the Gram blocks, the
Gram adjoints, the operator and Laplacian code and the Laplacian flag, a
constant change of coframe, the phi-basis oracle for d^2 = 0,
unimodularity and d omega = 0 (with the metric of a fundamental form
decided in the phi-basis), the Hodge star oracle for the Gram adjoints
and the star duality of the Laplacians, and the Fraction-pair reference and
Euclidean gcd for the scalar arithmetic."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from ahodge import hermitian, linalg, manifold
from ahodge.algebra import (
    Form,
    block_words,
    conj_word,
    merge_words,
    word_bidegree,
    words_of_degree,
)
from ahodge.fourier import (
    _MINOR_BUDGET,
    MODES_BOUND,
    ModeForm,
    ModeMatrix,
    _common_roots,
    _poly_det,
    _poly_substitute,
    _resultant,
    _solve_integer_system,
    _split_constraints,
)
from ahodge.hermitian import _metric, _pair_gram, _rebased, delta_laplacians_equal, metric_from_gram
from ahodge.manifold import BIDEGREE_SHIFTS, ManifoldSpec, _parse_fibration, substitute
from ahodge.pdesolve import _remainder_annihilated
from ahodge.scalars import ONE, ZERO, QQi, Scalar, compile_text, parse_scalar


def clear_memos():
    """Forget every compiled expression, section split, certified real
    structure and skeleton of the Laplacian flag kept in this process."""
    compile_text.cache_clear()
    manifold._sections.cache_clear()
    manifold._certify.cache_clear()
    hermitian._skeleton.cache_clear()


def word(n, *tokens):
    """Build an index word from tokens like "1", "2b" (b marks a conjugate)."""
    out = []
    for tok in tokens:
        if tok.endswith("b"):
            out.append(int(tok[:-1]) + n)
        else:
            out.append(int(tok))
    return tuple(sorted(out))


def form(spec, terms):
    """Form from [(coeff_expr, ("1", "2b", ...)), ...] with spec params bound."""
    total = Form.zero(spec.n)
    for coeff, tokens in terms:
        c = parse_scalar(coeff, spec.params) if isinstance(coeff, str) else coeff
        total = total + Form.monomial(spec.n, word(spec.n, *tokens), c)
    return total


def e_form(spec, k):
    """The real coframe element e^k in the phi-basis, as loading computed it."""
    return spec._e_forms[k - 1]


def S(expr, spec=None):
    return parse_scalar(expr, spec.params if spec is not None else None)


# A real-route manifest of dimension 6; {DE4} is the right side of d e4.
TOY = """
[manifold]
name = toy
dim = 6

[coframe]
d e1 = 0
d e2 = 0
d e3 = e12
d e4 = {DE4}
d e5 = 0
d e6 = 0

[acs]
phi1 = e1 + i*e2
phi2 = e3 + i*e4
phi3 = e5 + i*e6
"""

# A dim-4 [coframe] manifest whose d e3 is not real.
NON_REAL = """
[manifold]
name = nonreal
dim = 4

[params]
k = 1

[coframe]
d e1 = 0
d e2 = 0
d e3 = i*e12
d e4 = 0

[acs]
phi1 = e1 + i*e2
phi2 = e3 + i*e4
"""


# -- linear algebra and certificates only tests need ---------------------


def mat_eq(a, b) -> bool:
    """Same shape and equal entries; canonical scalars are equal exactly
    when their forms are, so no difference is formed."""
    return a == b


def mat_vec(a, v):
    return [
        sum((c * x for c, x in zip(row, v) if not c.is_zero()), ZERO) for row in a
    ]


def dense_rref(a):
    """Reduced row echelon form with whole-row operations: the oracle of
    ``linalg.rref``, which updates only the pivot row's nonzero columns."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if not m[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][c].inv()
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def dense_nullspace(a):
    """Right kernel read off ``dense_rref``: for each free column fc the
    vector with v[fc] = 1 and v[pc] = -red[r][fc] at the pivots, scaled so
    its first nonzero coordinate is one.  The oracle of ``linalg.nullspace``,
    which back-substitutes on a division-free echelon form."""
    red, pivots = dense_rref(a)
    n = len(a[0])
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [ZERO] * n
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(linalg.normalize_vector(v))
    return basis


def rank(a) -> int:
    if not a or not a[0]:
        return 0
    return len(linalg.rref(a)[1])


def row_space_equal(a, b) -> bool:
    """Whether two row sets span the same subspace (exact)."""
    ra = rank(a) if a else 0
    rb = rank(b) if b else 0
    if ra != rb:
        return False
    stacked = [row[:] for row in a] + [row[:] for row in b]
    return (rank(stacked) if stacked else 0) == ra


def recheck_promotion(sys, promo, spec) -> bool:
    """Re-verify a recorded promotion certificate against the final statuses.

    The status lattice only tightens, so a certificate valid at promotion
    time stays valid at the fixpoint.
    """
    frames = (
        spec.fibration.fiber_span
        if promo.rule == "fiber_maximum_principle"
        else tuple(range(1, spec.n + 1))
    )
    if len(promo.equations) != len(frames):
        return False
    for frame, idx in zip(frames, promo.equations):
        eq = sys.equations[idx]
        if eq.frame != frame or eq.unknown != promo.unknown or eq.coeff.is_zero():
            return False
        if not _remainder_annihilated(sys, eq, frame, spec):
            return False
    return True


# -- mode-form spans ------------------------------------------------------


def _mode_basis_matrix(basis, keys):
    key_index = {k: i for i, k in enumerate(keys)}
    rows = []
    for mf in basis:
        row = [ZERO] * len(keys)
        for m, f in mf.modes.items():
            for w, c in f.coeffs.items():
                row[key_index[(m, w)]] = c
        rows.append(row)
    return rows


def spans_equal(basis_a, basis_b) -> bool:
    """Whether two lists of ModeForms span the same space."""
    keys = set()
    for mf in list(basis_a) + list(basis_b):
        for m, f in mf.modes.items():
            for w in f.coeffs:
                keys.add((m, w))
    keys = sorted(keys)
    if not keys:
        return len(basis_a) == len(basis_b) == 0 or (not basis_a and not basis_b)
    return row_space_equal(
        _mode_basis_matrix(basis_a, keys), _mode_basis_matrix(basis_b, keys)
    )


def invariant(spec, terms):
    return ModeForm.invariant(form(spec, terms), spec.fibration.rank)


def span_rank(basis) -> int:
    """The dimension of the span of a list of ModeForms."""
    keys = sorted(
        {(m, w) for mf in basis for m, f in mf.modes.items() for w in f.coeffs}
    )
    return rank(_mode_basis_matrix(basis, keys)) if keys else 0


def basis_independent(basis) -> bool:
    return span_rank(basis) == len(basis)


def all_minors_modes(matrix: ModeMatrix, cap: int = MODES_BOUND):
    """``contributing_modes`` without its early end: every maximal minor is
    formed and split, and the integer system of all their conditions is
    solved."""
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
    minors = [_poly_det(list(pick)) for pick in combinations(rows, ncols)]
    solutions = _solve_integer_system(_split_constraints(minors), tuple(range(rank)), cap)
    if solutions is None:
        return None
    return [
        m for m in solutions if any(m) and linalg.kernel_nontrivial(matrix.eval(m), ncols)
    ]


def rank12_integer_system(polys, rank: int, cap: int):
    """The mode search's integer solver as it was for base ranks 1 and 2
    only, kept as the reference it must never be narrower than: where this
    returns a list, the recursive solver returns the same list.  Rank 2
    projects by pairwise resultants onto each coordinate in turn and lifts
    each root."""

    def held(p):
        return [j for j in range(rank) if any(e[j] for e in p)]

    polys = [p for p in polys if p]
    if any(not held(p) for p in polys):
        return []
    if not polys or rank not in (1, 2):
        return None
    if rank == 1:
        roots = _common_roots(polys, 0, cap)
        return None if roots is None else [(k,) for k in roots]
    for var in (0, 1):
        other = 1 - var
        elims = [p for p in polys if held(p) == [var]]
        pair_pool = [p for p in polys if other in held(p)]
        for a, b in combinations(pair_pool, 2):
            res = _resultant(a, b, other)
            if res:
                elims.append(res)
        if any(not held(p) for p in elims):
            return []
        if not elims:
            continue
        roots = _common_roots(elims, var, cap)
        if roots is None:
            return None
        solutions = []
        for k in roots:
            sub = [_poly_substitute(p, var, k) for p in polys]
            if any(p and not held(p) for p in sub):
                continue
            remaining = [p for p in sub if p]
            if not remaining:
                return None
            roots2 = _common_roots(remaining, other, cap)
            if roots2 is None:
                return None
            for k2 in roots2:
                m = [0, 0]
                m[var], m[other] = k, k2
                solutions.append(tuple(m))
        return sorted(set(solutions))
    return None


def times_torus2(text: str) -> str:
    """A rank-2 ``[coframe]`` manifest text times a flat 2-torus with base
    coordinates (u, v) of period 1: d e7 = d e8 = 0, phi4 = e7 + i*e8,
    omega gains e78, each symbol gains two zeros, and
    conj(V4) = (1/2)(d/du + i d/dv) acts on exp(2 pi i (nu u + rho v)) by
    i pi nu - pi rho."""
    lines = []
    for line in text.strip().splitlines():
        if line.startswith("name = "):
            line += "_t2"
        elif line == "dim = 6":
            line = "dim = 8"
        elif line == "rank = 2":
            line = "rank = 4"
        elif line.startswith("coords = "):
            line = line[:-1] + ", u, v]"
        elif "symbol = [" in line:
            line = line[:-1] + ", 0, 0]"
        elif line.startswith("omega = "):
            line += " + e78"
        elif line.startswith("fiber_span = "):
            lines.append("V4: base, symbol = [0, 0, i*pi, -pi]")
        lines.append(line)
        if line.startswith("d e6 = "):
            lines += ["d e7 = 0", "d e8 = 0"]
        elif line.startswith("phi3 = "):
            lines.append("phi4 = e7 + i*e8")
    return "\n".join(lines) + "\n"


def exhaustive_mode_scan(matrix: ModeMatrix, bound: int):
    """Brute-force oracle: every nonzero mode with |m_j| <= bound whose
    evaluated system has a nontrivial kernel."""
    if matrix.rank == 0 or not matrix.base_cols:
        return []
    ncols = len(matrix.base_cols)
    out = []
    ranges = [range(-bound, bound + 1)] * matrix.rank

    def rec(prefix, rest):
        if not rest:
            m = tuple(prefix)
            if any(m):
                ev = matrix.eval(m)
                if linalg.kernel_nontrivial(ev, ncols):
                    out.append(m)
            return
        for v in rest[0]:
            rec(prefix + [v], rest[1:])

    rec([], ranges)
    return sorted(out)


# -- operator and Laplacian oracles --------------------------------------


def bidegrees(n, k):
    """The bidegrees (p, q) of the invariant k-forms, p ascending."""
    return [(p, k - p) for p in range(max(0, k - n), min(k, n) + 1)]


def _shift(pq, which, sign=1):
    dp, dq = BIDEGREE_SHIFTS[which]
    return (pq[0] + sign * dp, pq[1] + sign * dq)


# each first-order operator as the pieces of d it sums
OPERATOR_PARTS = {
    "dbar": ("dbar",),
    "deltabar": ("dbar", "mu"),
    "delta": ("del", "mubar"),
    "d": ("mu", "del", "dbar", "mubar"),
}


def _conj(m):
    return [[x.conj() for x in row] for row in m]


def gram_determinant(h_block, w1, w2):
    """<m_w1, m_w2> as the determinant of coframe inner products: H on the
    (1,0)-coframe, conj H on its conjugate, zero between the two."""
    n = len(h_block)

    def g(a, b):
        if (a <= n) != (b <= n):
            return ZERO
        return h_block[a - 1][b - 1] if a <= n else h_block[a - n - 1][b - n - 1].conj()

    return linalg.det([[g(a, b) for b in w2] for a in w1])


def gram_matrix(gram, k):
    """Gram matrix of the sorted words of exterior degree k, all bidegrees
    together, from Gram determinants (not from the compound blocks)."""
    words = words_of_degree(gram.n, k)
    return [[gram_determinant(gram.hermitian_block, w1, w2) for w2 in words] for w1 in words]


def compound(m, p):
    """C_p(m): the p x p minors of m, rows and columns the p-subsets of its
    indices in ``combinations`` order."""
    subsets = list(combinations(range(len(m)), p))
    return [
        [linalg.det([[m[a][b] for b in cols] for a in rows]) for cols in subsets]
        for rows in subsets
    ]


def gram_block(gram, p, q):
    """The Gram block of bidegree (p, q), C_p(H) (x) conj C_q(H)."""
    return _conj(gram.conj_block(p, q))


def conj_block_inverse(gram, p, q):
    """The inverse of ``gram.conj_block(p, q)`` from minors of H^-1 alone:
    conj C_p(H^-1) (x) C_q(H^-1), as C_p(H)^-1 = C_p(H^-1)."""
    h_inverse = linalg.inverse(gram.hermitian_block)
    left, right = _conj(compound(h_inverse, p)), compound(h_inverse, q)
    return [[x * y for x in a for y in b] for a in left for b in right]


def piece_adjoint(which, pq, h, spec):
    """Dense Gram adjoint conj(G_src)^-1 M^H conj(G_tgt) of one piece of d on
    block pq, from block pq + shift back to pq, or None when the piece is
    absent."""
    m = spec.piece_matrix(pq, which)
    if m is None:
        return None
    return linalg.mat_mul(
        conj_block_inverse(h.gram, *pq),
        linalg.mat_mul(linalg.conj_transpose(m), h.gram.conj_block(*_shift(pq, which))),
    )


def _add_block(blocks, key, term):
    prev = blocks.get(key)
    if prev is not None:
        term = [[x + y for x, y in zip(a, b)] for a, b in zip(prev, term)]
    blocks[key] = term


def laplacian_blocks(parts, h, spec, k):
    """Dense O O* + O* O on invariant k-forms in the declared coframe, for O
    the sum of the pieces of d named in ``parts``, as {(target bidegree,
    source bidegree): matrix}; blocks that no term reaches are absent."""
    blocks: dict = {}
    for src in bidegrees(spec.n, k):
        for x in parts:
            for y in parts:
                # X Y*: src -> mid = src - shift(Y) -> mid + shift(X)
                mid = _shift(src, y, -1)
                x_mat = spec.piece_matrix(mid, x)
                y_adj = piece_adjoint(y, mid, h, spec)
                if x_mat is not None and y_adj is not None:
                    _add_block(blocks, (_shift(mid, x), src), linalg.mat_mul(x_mat, y_adj))
                # X* Y: src -> src + shift(Y) -> back by shift(X)
                y_mat = spec.piece_matrix(src, y)
                back = _shift(_shift(src, y), x, -1)
                x_adj = piece_adjoint(x, back, h, spec)
                if y_mat is not None and x_adj is not None:
                    _add_block(blocks, (back, src), linalg.mat_mul(x_adj, y_mat))
    return blocks


def adjoint_matrix(m, g_src, g_tgt):
    """Gram adjoint: <M x, y>_tgt = <x, A y>_src for all basis vectors."""
    if not m:
        return []
    return linalg.mat_mul(
        linalg.inverse(_conj(g_src)),
        linalg.mat_mul(linalg.conj_transpose(m), _conj(g_tgt)),
    )


def _dense(blocks, spec, k_tgt, k_src):
    """Scatter {(target bidegree, source bidegree): matrix} into one matrix
    from degree k_src to degree k_tgt, in sorted word order."""
    tgt = {w: i for i, w in enumerate(words_of_degree(spec.n, k_tgt))}
    src = {w: i for i, w in enumerate(words_of_degree(spec.n, k_src))}
    mat = linalg.zeros(len(tgt), len(src))
    for (tgt_pq, src_pq), block in blocks.items():
        cols = [src[w] for w in spec.block_words(*src_pq)]
        for w, brow in zip(spec.block_words(*tgt_pq), block):
            for c, x in zip(cols, brow):
                mat[tgt[w]][c] = x
    return mat


def operator_matrix(which, spec, k):
    """Matrix of one first-order operator from degree k to degree k+1."""
    blocks = {
        (_shift(pq, part), pq): m
        for pq in bidegrees(spec.n, k)
        for part in OPERATOR_PARTS[which]
        if (m := spec.piece_matrix(pq, part)) is not None
    }
    return _dense(blocks, spec, k + 1, k)


def laplacian_matrix(which, h, spec, k):
    """Matrix of O O* + O* O on invariant k-forms."""
    return _dense(laplacian_blocks(OPERATOR_PARTS[which], h, spec, k), spec, k, k)


def delta_laplacian(h, spec, k):
    """L_delta on invariant k-forms built directly from the del and mubar
    pieces, not by conjugating L_deltabar."""
    return laplacian_matrix("delta", h, spec, k)


def laplacians_equal_all_degrees(h, spec):
    """The Laplacian flag by its definition: L_deltabar against a directly
    built L_delta, as whole matrices on every degree 0..2n."""
    return all(
        mat_eq(laplacian_matrix("deltabar", h, spec, k), delta_laplacian(h, spec, k))
        for k in range(2 * spec.n + 1)
    )


class NotAlmostKahler(ValueError):
    """The almost-Kahler identity is claimed only for a closed fundamental
    form."""


def check_ak_identity(h, spec):
    """The Laplacian flag where the almost-Kahler identities claim it true."""
    if not h.is_almost_kahler:
        raise NotAlmostKahler("fundamental form is not closed")
    return delta_laplacians_equal(h, spec)


def rebase(spec, a, h):
    """The spec and its metric h in the coframe phi' = A phi, whose Gram
    block is H' = A H A^H.  The spec declares no metric and a fibration of
    rank 0, so only its flags and its d^2 are meaningful; building it
    validates it, so d^2 = 0 and unimodularity are checked again."""
    n, l = spec.n, linalg.inverse(a)
    images = [Form(n, {(c,): x for c, x in enumerate(row, 1) if not x.is_zero()}) for row in l]
    images += [phi.conj() for phi in images]
    rebased = ManifoldSpec(
        spec.name, n, spec.params, _rebased(spec, l)[:n],
        [substitute(images, e_form(spec, k)) for k in range(1, 2 * n + 1)],
        None, _parse_fibration((), spec.params, n), spec.section, spec.symbol,
    )
    h_block = linalg.mat_mul(a, linalg.mat_mul(h.gram.hermitian_block, linalg.conj_transpose(a)))
    return rebased, metric_from_gram(h_block, rebased)


def phi_side_verdicts(spec, omega):
    """d^2 = 0, unimodularity and d omega = 0 decided in the phi-basis, as
    loading did before it read the declared real coframe: d^2 on phi^1..
    phi^n, d on every (2n-1)-word, and d of ``omega``, a form over e^1..e^2n
    rewritten in the phi-basis.  The d^2 verdict is None when d^2 = 0, else
    the name and residue of the first e^k with d^2 e^k != 0."""
    n = spec.n
    d2 = None
    if not all(spec.exterior_d(spec.d_generator(a)).is_zero() for a in range(1, n + 1)):
        for k in range(1, 2 * n + 1):
            residue = spec.exterior_d(spec.exterior_d(e_form(spec, k)))
            if not residue.is_zero():
                d2 = (f"e{k}", residue)
                break
    unimodular = all(spec.d_word(w).is_zero() for w in words_of_degree(n, 2 * n - 1))
    images = [e_form(spec, k) for k in range(1, 2 * n + 1)]
    return d2, unimodular, spec.exterior_d(substitute(images, omega)).is_zero()


def metric_from_pair(omega, spec):
    """The metric g(u, v) = omega(u, Jv) of a compatible fundamental form
    omega = sum W_jk phi^j ^ conj phi^k, with d omega = 0 decided in the
    phi-basis."""
    return _metric(spec, _pair_gram(omega, spec), omega, spec.exterior_d(omega).is_zero())


def check_ldl(gram):
    """``gram.ldl()`` is H = L D L^H exactly, L unit lower triangular and D_k
    = m_k / m_(k-1) from the leading principal minors m_k of H."""
    h, n = gram.hermitian_block, gram.n
    l, d = gram.ldl()
    for i in range(n):
        assert l[i][i] == ONE and all(x.is_zero() for x in l[i][i + 1 :])
    minors = [linalg.det([row[:k] for row in h[:k]]) for k in range(n + 1)]
    assert d == [minors[k] / minors[k - 1] for k in range(1, n + 1)]
    diag = [[d[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    assert linalg.mat_mul(l, linalg.mat_mul(diag, linalg.conj_transpose(l))) == h


def conjugated(mat, spec, k):
    """C M C on invariant k-forms, with C the signed conjugation of words:
    entry (u, w) is s_u s_w conj(M[c(u)][c(w)])."""
    words = words_of_degree(spec.n, k)
    index = {w: i for i, w in enumerate(words)}
    conj = []
    for w in words:
        sign, cw = conj_word(w, spec.n)
        conj.append((sign, index[cw]))
    return [
        [mat[cu][cw].conj() if su == sw else -mat[cu][cw].conj() for sw, cw in conj]
        for su, cu in conj
    ]


@dataclass
class BlockKernel:
    bidegree: tuple
    dimension: int
    basis: list


def laplacian_invariant(which, h, spec):
    """Kernel of the chosen Laplacian restricted to each bidegree block of
    invariant forms.  Returns {(p, q): BlockKernel}."""
    n = spec.n
    out = {}
    for k in range(2 * n + 1):
        words = words_of_degree(n, k)
        lap = laplacian_matrix(which, h, spec, k)
        blocks = {}
        for i, w in enumerate(words):
            blocks.setdefault(word_bidegree(w, n), []).append(i)
        for pq, cols in sorted(blocks.items()):
            sub = [[row[c] for c in cols] for row in lap]
            kernel = linalg.nullspace(sub, cols=len(cols))
            basis = []
            for vec in kernel:
                form = Form.zero(n)
                for c, col in zip(vec, cols):
                    if not c.is_zero():
                        form = form + Form.monomial(n, words[col], c)
                basis.append(form)
            out[pq] = BlockKernel(pq, len(kernel), basis)
    return out


# the seven bidegree components of d^2 = 0, each as (name, [(outer, inner)])
D2_COMPONENTS = [
    ("mu mu", [("mu", "mu")]),
    ("mu del + del mu", [("mu", "del"), ("del", "mu")]),
    (
        "del del + mu dbar + dbar mu",
        [("del", "del"), ("mu", "dbar"), ("dbar", "mu")],
    ),
    (
        "del dbar + dbar del + mu mubar + mubar mu",
        [("del", "dbar"), ("dbar", "del"), ("mu", "mubar"), ("mubar", "mu")],
    ),
    (
        "dbar dbar + mubar del + del mubar",
        [("dbar", "dbar"), ("mubar", "del"), ("del", "mubar")],
    ),
    ("mubar dbar + dbar mubar", [("mubar", "dbar"), ("dbar", "mubar")]),
    ("mubar mubar", [("mubar", "mubar")]),
]


def d2_relations_all_degrees(spec):
    """The seven bidegree components of d^2 = 0 evaluated on every
    invariant monomial, as (name, holds, first failing word in
    degree-then-word order or None), in ``D2_COMPONENTS`` order."""
    report = []
    n = spec.n
    for name, pairs in D2_COMPONENTS:
        witness = None
        for k in range(2 * n + 1):
            failing = []
            for p in range(max(0, k - n), min(k, n) + 1):
                for w in spec.block_words(p, k - p):
                    total = Form.zero(n)
                    for outer, inner in pairs:
                        total = total + spec.op_apply(
                            outer, spec.op_apply(inner, Form.monomial(n, w))
                        )
                    if not total.is_zero():
                        failing.append(w)
            if failing:
                witness = min(failing)
                break
        report.append((name, witness is None, witness))
    return report


# -- the Hodge star oracle ------------------------------------------------
# The complex-linear star, solved against the volume form omega^n / n! by
# a ^ star(conj b) = <a, b> vol.  The harmonic filters use Gram adjoints
# instead; the star criterion mubar(star psi) = 0 checks them.


class DegreeMismatch(ValueError):
    """Inner product of forms of different total degree."""


def word_inner(gram, w1, w2):
    """<m_w1, m_w2>, an entry of the Gram block of their bidegree."""
    if len(w1) != len(w2):
        raise DegreeMismatch("inner product of words of different degree")
    p, q = word_bidegree(w1, gram.n)
    if p != word_bidegree(w2, gram.n)[0]:
        return ZERO
    words = block_words(gram.n, p, q)
    return gram_block(gram, p, q)[words.index(tuple(w1))][words.index(tuple(w2))]


def inner_product(gram, alpha, beta):
    """<alpha, beta> from the Gram determinants of words; words of different
    degree raise DegreeMismatch."""
    total = ZERO
    for w1, c1 in alpha.coeffs.items():
        for w2, c2 in beta.coeffs.items():
            total = total + c1 * c2.conj() * word_inner(gram, w1, w2)
    return total


def volume(h):
    """omega^n / n!, a multiple of the full word of unit norm."""
    n = h.gram.n
    vol = Form.scalar(n, ONE)
    for _ in range(n):
        vol = vol.wedge(h.omega)
    return vol.scale(Scalar.rational(1, factorial(n)))


def hodge_star(h, alpha):
    """star(m_w) = sum over words u of the degree of w of <m_u, conj m_w>
    times the volume coefficient on the complement of u, signed so that
    m_u ^ m_complement is the full word."""
    n = h.gram.n
    full = tuple(range(1, 2 * n + 1))
    vol = volume(h).coefficient(full)
    out = Form.zero(n)
    for w, c in alpha.coeffs.items():
        conj_mono = Form.monomial(n, w).conj()
        for u in words_of_degree(n, len(w)):
            value = inner_product(h.gram, Form.monomial(n, u), conj_mono) * vol * c
            comp = tuple(j for j in full if j not in u)
            sign, _ = merge_words(u, comp)
            out = out + Form.monomial(n, comp, value if sign > 0 else -value)
    return out


def star_matrix(h, k):
    """The oracle star from invariant k-forms to (2n-k)-forms as a matrix in
    sorted word order."""
    n = h.gram.n
    rows = {w: i for i, w in enumerate(words_of_degree(n, 2 * n - k))}
    src = words_of_degree(n, k)
    mat = linalg.zeros(len(rows), len(src))
    for col, w in enumerate(src):
        for u, c in hodge_star(h, Form.monomial(n, w)).coeffs.items():
            mat[rows[u]][col] = c
    return mat


def mubar_mode(mf, spec):
    """mubar is linear over functions, so it passes through every mode."""
    return ModeForm(mf.n, mf.rank, {m: spec.op_apply("mubar", a) for m, a in mf.modes.items()})


def star_mode(mf, h):
    """The complex-linear star passes through base characters unchanged."""
    return ModeForm(mf.n, mf.rank, {m: hodge_star(h, a) for m, a in mf.modes.items()})


def star_criterion_filter(dbar, spec, h):
    """Basis of the forms of the dbar space with mubar(star psi) = 0, cut
    mode by mode in the same basis order as the (dbar+mu)-harmonic filter."""
    if not dbar.basis:
        return dbar.basis
    rows: dict = {}
    for j, mf in enumerate(dbar.basis):
        for m, form in mubar_mode(star_mode(mf, h), spec).modes.items():
            for w, c in form.coeffs.items():
                rows.setdefault((m, w), [ZERO] * len(dbar.basis))[j] = c
    out = []
    for vec in linalg.nullspace([rows[k] for k in sorted(rows)], cols=len(dbar.basis)):
        total = ModeForm(spec.n, spec.fibration.rank)
        for c, mf in zip(vec, dbar.basis):
            if not c.is_zero():
                total = total + mf.scale(c)
        out.append(total)
    return out


# -- reference scalar arithmetic ------------------------------------------


class RefQQi:
    """Gaussian rational a + b*i with Fraction components: the layout that
    ``scalars.QQi`` had before it held one integer triple, kept as the
    oracle for it."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return RefQQi(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RefQQi(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return RefQQi(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return RefQQi(a * c - b * d, a * d + b * c)

    def inv(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("1/0 in RefQQi")
        return RefQQi(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inv()

    def conj(self):
        return RefQQi(self.re, -self.im)

    def is_zero(self):
        return not self.re and not self.im

    def __eq__(self, other):
        return isinstance(other, RefQQi) and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))


def to_ref(poly) -> tuple:
    """A polynomial of ``QQi`` coefficients with each one read straight off
    its integer triple, not through the ``re``/``im`` properties."""
    return tuple(RefQQi(Fraction(c.a, c.d), Fraction(c.b, c.d)) for c in poly)


def ref_poly(coeffs) -> tuple:
    """A RefQQi polynomial with trailing zeros dropped."""
    cs = list(coeffs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def ref_padd(p, q) -> tuple:
    zero = RefQQi()
    return ref_poly(
        (p[k] if k < len(p) else zero) + (q[k] if k < len(q) else zero)
        for k in range(max(len(p), len(q)))
    )


def ref_pmul(p, q) -> tuple:
    if not p or not q:
        return ()
    out = [RefQQi()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return ref_poly(out)


def ref_gcd_degree(p, q) -> int:
    """Degree of gcd(p, q) by Euclid's algorithm on remainders."""
    while q:
        r = list(p)
        lead_inv = q[-1].inv()
        while len(r) >= len(q):
            c = r[-1] * lead_inv
            k = len(r) - len(q)
            for j, b in enumerate(q):
                r[k + j] = r[k + j] - c * b
            r = list(ref_poly(r))
        p, q = q, tuple(r)
    return len(p) - 1


def from_ref(poly) -> tuple:
    """A RefQQi polynomial as QQi coefficients."""
    return tuple(QQi(c.re, c.im) for c in poly)


def _strip(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def long_divmod(p, q) -> tuple:
    """Quotient and remainder of QQi polynomials by schoolbook division,
    one leading term at a time: the oracle for ``scalars.pdivmod``."""
    r = list(p)
    quot = [QQi()] * max(0, len(p) - len(q) + 1)
    lead_inv = q[-1].inv()
    while len(r) >= len(q):
        c = r[-1] * lead_inv
        k = len(r) - len(q)
        quot[k] = c
        for j, b in enumerate(q):
            r[k + j] = r[k + j] - c * b
        r = list(_strip(r))
    return _strip(quot), tuple(r)


def euclid_gcd(p, q) -> tuple:
    """Monic gcd of QQi polynomials by Euclid's algorithm alone, with no
    shortcut for any degree: the oracle for ``scalars.pgcd``."""
    while q:
        p, q = q, long_divmod(p, q)[1]
    if not p:
        return p
    inv = p[-1].inv()
    return tuple(c * inv for c in p)


def is_canonical_form_of(num, den, ref_num, ref_den) -> bool:
    """Whether the QQi polynomials num/den are the canonical form of the
    RefQQi fraction ref_num/ref_den: equal by cross-multiplication, den
    monic, and num and den coprime (zero is 0/1)."""
    n, d = to_ref(num), to_ref(den)
    if not d or d[-1] != RefQQi(1):
        return False
    if not n:
        return d == (RefQQi(1),) and not ref_num
    return ref_pmul(n, ref_den) == ref_pmul(ref_num, d) and ref_gcd_degree(n, d) == 0


def _ref_frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _ref_coeff_str(c: RefQQi) -> str:
    if c.im == 0:
        return _ref_frac_str(c.re)
    if c.re == 0:
        if c.im in (1, -1):
            return "i" if c.im == 1 else "-i"
        if c.im < 0:
            return f"-({_ref_frac_str(-c.im)})*i"
        return f"({_ref_frac_str(c.im)})*i"
    return f"({_ref_frac_str(c.re)} + ({_ref_frac_str(c.im)})*i)"


def _ref_poly_str(p) -> str:
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c.is_zero():
            continue
        if k == 0:
            parts.append(_ref_coeff_str(c))
            continue
        pi_part = "pi" if k == 1 else f"pi^{k}"
        if c in (RefQQi(1), RefQQi(-1)):
            parts.append(pi_part if c == RefQQi(1) else f"-{pi_part}")
            continue
        cs = _ref_coeff_str(c)
        if "+" in cs or "/" in cs or "*" in cs.lstrip("-"):
            cs = cs if cs.startswith("(") else f"({cs})"
        parts.append(f"{cs}*{pi_part}")
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def ref_format(num, den) -> str:
    """The text ``format_scalar`` gave for num/den in RefQQi polynomials."""
    if den == (RefQQi(1),):
        return _ref_poly_str(num)
    return f"({_ref_poly_str(num)})/({_ref_poly_str(den)})"
