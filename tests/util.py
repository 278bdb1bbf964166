"""Shared test helpers: compact word/form builders, span comparison, and
dense and all-degree oracles for the operator and Laplacian code."""

from dataclasses import dataclass

from ahodge import linalg
from ahodge.algebra import Form, conj_word, word_bidegree, words_of_degree
from ahodge.fourier import ModeForm, ModeMatrix
from ahodge.hermitian import _OPERATOR_PARTS, _bidegrees, _shift, laplacian_blocks
from ahodge.manifold import D2_RELATIONS
from ahodge.scalars import ZERO, parse_scalar


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


def S(expr, spec=None):
    return parse_scalar(expr, spec.params if spec is not None else None)


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
    return linalg.row_space_equal(
        _mode_basis_matrix(basis_a, keys), _mode_basis_matrix(basis_b, keys)
    )


def invariant(spec, terms):
    return ModeForm.invariant(form(spec, terms), spec.fibration.rank)


def basis_independent(basis) -> bool:
    keys = sorted(
        {(m, w) for mf in basis for m, f in mf.modes.items() for w in f.coeffs}
    )
    if not basis:
        return True
    rows = _mode_basis_matrix(basis, keys)
    return linalg.rank(rows) == len(basis)


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


def _conj(m):
    return [[x.conj() for x in row] for row in m]


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
        (_shift(pq, part), pq): spec.piece_matrices(pq)[part]
        for pq in _bidegrees(spec.n, k)
        for part in _OPERATOR_PARTS[which]
        if part in spec.piece_matrices(pq)
    }
    return _dense(blocks, spec, k + 1, k)


def laplacian_matrix(which, h, spec, k):
    """Matrix of O O* + O* O on invariant k-forms."""
    return _dense(laplacian_blocks(which, h, spec, k), spec, k, k)


def delta_laplacian(h, spec, k):
    """L_delta on invariant k-forms built directly from the del and mubar
    pieces, not by conjugating L_deltabar."""
    return laplacian_matrix("delta", h, spec, k)


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


def d2_relations_all_degrees(spec):
    """The seven bidegree components of d^2 = 0 evaluated on every
    invariant monomial, as (name, holds, first failing word in
    degree-then-word order or None), in ``check_d2_relations`` order."""
    report = []
    n = spec.n
    for name, pairs in D2_RELATIONS:
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

