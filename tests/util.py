"""Shared test helpers: compact word/form builders and span comparison."""

from ahodge import linalg
from ahodge.algebra import Form
from ahodge.fourier import ModeForm, ModeMatrix
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
