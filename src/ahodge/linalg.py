"""Dense exact linear algebra over the Q(pi)(i) scalar field.

Matrices are lists of row lists of Scalars.  Everything here is small, and
the only inverses are of the n x n Gram block, its dual, the triangular
factor of a non-diagonal one and the 2n x 2n coframe change of basis, so
plain Gauss-Jordan with exact division is fine.
"""

from __future__ import annotations

from bisect import bisect_left

from .scalars import ONE, ZERO, Scalar


class Singular(ValueError):
    """An inverse asked of a singular matrix."""


def zeros(rows: int, cols: int):
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int):
    m = zeros(n, n)
    for k in range(n):
        m[k][k] = ONE
    return m


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c.is_zero():
                continue
            bk = b[k]
            for j in range(cols):
                if not bk[j].is_zero():
                    oi[j] = oi[j] + c * bk[j]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def conj_transpose(a):
    return [[x.conj() for x in col] for col in zip(*a)] if a else []


def rref(a):
    """Reduced row echelon form; returns (matrix, pivot column list).  Row
    operations touch only the nonzero columns of the pivot row, since
    0 * inv = 0 and x - f * 0 = x."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if not m[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        support = [j for j, x in enumerate(prow) if not x.is_zero()]
        inv = prow[c].inv()
        for j in support:
            prow[j] = prow[j] * inv
        for i in range(rows):
            f = m[i][c]
            if i != r and not f.is_zero():
                row = m[i]
                for j in support:
                    row[j] = row[j] - f * prow[j]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(a, cols: int | None = None):
    """Basis of the right kernel, each vector scaled so its first nonzero
    coordinate is one.  ``cols`` covers the empty-matrix case.  The pivots
    come from division-free elimination, so a full-rank matrix divides
    nowhere; each free column fc gives the one kernel vector with v[fc] = 1
    and the other free coordinates 0, by back substitution."""
    if not a:
        n = cols or 0
        basis = []
        for k in range(n):
            v = [ZERO] * n
            v[k] = ONE
            basis.append(v)
        return basis
    n = len(a[0])
    ech, pivots = _echelon(a, n)
    if len(pivots) == n:
        return []
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * n
        v[fc] = ONE
        # a row whose pivot lies right of fc is zero up to it, so v is 0 there
        k = bisect_left(pivots, fc)
        for r in range(k - 1, -1, -1):
            row = ech[r]
            total = row[fc]
            for pc in pivots[r + 1 : k]:
                total = total + row[pc] * v[pc]
            if not total.is_zero():
                v[pivots[r]] = -(total / row[pivots[r]])
        basis.append(normalize_vector(v))
    return basis


def _echelon(a, cols: int):
    """(rows, pivot columns) of a row echelon form of ``a`` by
    fraction-free elimination: no divisions, hence no gcd normalization.
    Rows from ``len(pivots)`` on are left unfinished."""
    mat = [row[:] for row in a]
    rows = len(mat)
    pivots = []
    for c in range(cols):
        rank = len(pivots)
        piv = None
        for r in range(rank, rows):
            if not mat[r][c].is_zero():
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivots.append(c)
        if rank + 1 == rows or c + 1 == cols:
            break
        pval = mat[rank][c]
        prow = mat[rank]
        for r in range(rank + 1, rows):
            f = mat[r][c]
            if f.is_zero():
                continue
            mat[r] = [pval * x - f * y for x, y in zip(mat[r], prow)]
    return mat, pivots


def kernel_nontrivial(a, cols: int) -> bool:
    """Whether the right kernel is nonzero, by fraction-free elimination."""
    if cols == 0:
        return False
    if not a:
        return True
    return len(_echelon(a, cols)[1]) < cols


def normalize_vector(v):
    for x in v:
        if not x.is_zero():
            inv = x.inv()
            return [y * inv for y in v]
    return v


def inverse(a):
    """Exact inverse by Gauss-Jordan elimination."""
    n = len(a)
    aug = [row + unit for row, unit in zip(a, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise Singular("matrix is singular")
    return [row[n:] for row in red]


def det(a) -> Scalar:
    n = len(a)
    if n == 0:
        return ONE
    m = [row[:] for row in a]
    sign = ONE
    out = ONE
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if not m[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        piv = m[c][c]
        out = out * piv
        inv = piv.inv()
        for i in range(c + 1, n):
            if not m[i][c].is_zero():
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out * sign
