"""Complexified exterior algebra on an invariant coframe, with bigrading.

Basis one-forms are indexed 1..n (the (1,0) generators) and n+1..2n (their
conjugates), so the fixed index order 1 < ... < n < 1bar < ... < nbar is just
integer order.  A Form is a finitely supported map from strictly increasing
index words to scalars in Q(pi)(i); no zero coefficients are ever stored.

GramData carries the Hermitian inner products of the coframe, and from those
alone computes inner products of words (Gram determinants) and, per
bidegree block, the Gram matrix and the inverse of its conjugate that
operator adjoints are built from, both from minors of H and of H^-1.
``block_words`` fixes the word order of every bidegree block.  No
hand-coded sign tables.
"""

from __future__ import annotations

from itertools import combinations

from . import linalg
from .scalars import ONE, ZERO, Scalar, format_scalar, is_positive


class DimensionMismatch(ValueError):
    """Operands live over coframes of different dimension."""


class DegreeMismatch(ValueError):
    """Inner product of forms of different total degree."""


class NotPositive(ValueError):
    """A metric failed certified positive-definiteness."""


def word_bidegree(word, n: int):
    p = sum(1 for j in word if j <= n)
    return (p, len(word) - p)


def words_of_degree(n: int, k: int):
    return [tuple(w) for w in combinations(range(1, 2 * n + 1), k)]


def block_words(n: int, p: int, q: int):
    """Sorted index words of bidegree (p, q); empty outside the range.  A
    word is a p-subset I of 1..n followed by a q-subset J shifted by n, so
    sorted order is (I, J) in lexicographic order: the row order of the
    Kronecker product C_p (x) C_q of compound matrices."""
    if not (0 <= p <= n and 0 <= q <= n):
        return []
    first = range(1, n + 1)
    barred = range(n + 1, 2 * n + 1)
    return [i + j for i in combinations(first, p) for j in combinations(barred, q)]


def merge_words(w1, w2):
    """Concatenate-and-sort two strictly increasing words.

    Returns (sign, word) or None when an index repeats.
    """
    if not w1:
        return 1, tuple(w2)
    if not w2:
        return 1, tuple(w1)
    out = []
    sign = 1
    i = j = 0
    while i < len(w1) and j < len(w2):
        a, b = w1[i], w2[j]
        if a == b:
            return None
        if a < b:
            out.append(a)
            i += 1
        else:
            # b jumps over the remaining len(w1) - i letters of w1
            if (len(w1) - i) % 2 == 1:
                sign = -sign
            out.append(b)
            j += 1
    out.extend(w1[i:])
    out.extend(w2[j:])
    return sign, tuple(out)


def sort_word(indices):
    """Sort an arbitrary index sequence, tracking the permutation sign."""
    word = ()
    sign = 1
    for j in indices:
        merged = merge_words(word, (j,))
        if merged is None:
            return None
        s, word = merged
        sign *= s
    return sign, word


def conj_word(word, n: int):
    """Bar-swap every index and resort; returns (sign, word)."""
    swapped = [j + n if j <= n else j - n for j in word]
    return sort_word(swapped)


class Form:
    """Finitely supported exterior element over the complexified coframe."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict | None = None):
        self.n = n
        self.coeffs = coeffs or {}

    @staticmethod
    def zero(n: int) -> "Form":
        return Form(n)

    @staticmethod
    def monomial(n: int, word, coeff: Scalar = ONE) -> "Form":
        if coeff.is_zero():
            return Form(n)
        return Form(n, {tuple(word): coeff})

    @staticmethod
    def scalar(n: int, value: Scalar) -> "Form":
        return Form.monomial(n, (), value)

    def _check(self, other: "Form"):
        if self.n != other.n:
            raise DimensionMismatch(f"dimension {self.n} vs {other.n}")

    def __add__(self, other: "Form") -> "Form":
        self._check(other)
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return Form(self.n, out)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def __neg__(self) -> "Form":
        return Form(self.n, {w: -c for w, c in self.coeffs.items()})

    def scale(self, s: Scalar) -> "Form":
        if s.is_zero():
            return Form(self.n)
        return Form(self.n, {w: c * s for w, c in self.coeffs.items()})

    def __rmul__(self, s: Scalar) -> "Form":
        return self.scale(s)

    def wedge(self, other: "Form") -> "Form":
        self._check(other)
        out: dict = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                merged = merge_words(w1, w2)
                if merged is None:
                    continue
                sign, w = merged
                c = c1 * c2
                if sign < 0:
                    c = -c
                s = out.get(w)
                s = c if s is None else s + c
                if s.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = s
        return Form(self.n, out)

    def conj(self) -> "Form":
        out: dict = {}
        for w, c in self.coeffs.items():
            sign, cw = conj_word(w, self.n)
            cc = c.conj()
            if sign < 0:
                cc = -cc
            out[cw] = cc
        return Form(self.n, out)

    def bidegree_split(self) -> dict:
        parts: dict = {}
        for w, c in self.coeffs.items():
            pq = word_bidegree(w, self.n)
            parts.setdefault(pq, {})[w] = c
        return {pq: Form(self.n, coeffs) for pq, coeffs in sorted(parts.items())}

    def component(self, p: int, q: int) -> "Form":
        out = {
            w: c
            for w, c in self.coeffs.items()
            if word_bidegree(w, self.n) == (p, q)
        }
        return Form(self.n, out)

    def degree(self) -> int | None:
        degs = {len(w) for w in self.coeffs}
        return degs.pop() if len(degs) == 1 else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, word) -> Scalar:
        return self.coeffs.get(tuple(word), ZERO)

    def terms(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other):
        # no coefficient is stored as zero, so equal forms have equal dicts
        return isinstance(other, Form) and self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.coeffs.items(), key=lambda t: t[0]))))

    def pretty(self, symbol: str = "phi") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for w, c in self.terms():
            body = _word_str(w, self.n, symbol)
            prefix = _coeff_prefix(c)
            parts.append(prefix + body if body else format_scalar(c))
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    def __repr__(self):
        return f"Form({self.pretty()})"


def _word_str(word, n: int, symbol: str) -> str:
    if not word:
        return ""
    plain = "".join(str(j) for j in word if j <= n)
    barred = "".join(f"{j - n}b" for j in word if j > n)
    inner = plain if not barred else (f"{plain} {barred}" if plain else barred)
    return f"{symbol}^{{{inner}}}"


def _coeff_prefix(c: Scalar) -> str:
    if c == ONE:
        return ""
    if c == -ONE:
        return "-"
    text = format_scalar(c)
    sign = ""
    if text.startswith("-") and " " not in text:
        sign, text = "-", text[1:]
    if any(op in text[1:] for op in "+-") or "/" in text or "*" in text:
        text = f"({text})"
    return f"{sign}{text}*"


class GramData:
    """Inner products of invariant forms for one metric.

    ``hermitian_block`` is the n x n Hermitian matrix H of inner products of
    the (1,0)-coframe phi^1..phi^n and ``hermitian_inverse`` is H^-1, which
    the caller supplies (the metric has it as -i W^T from the fundamental
    form, without inverting H); the conjugate coframe has Gram matrix
    conj(H) and is orthogonal to it, as for every metric compatible with the
    almost-complex structure.  So words of different bidegree are orthogonal,
    and the Gram determinant of two words of one bidegree is a minor of H
    times the conjugate of another.  In ``block_words`` order the Gram block
    of bidegree (p, q) is therefore the Kronecker product C_p(H) (x)
    conj C_q(H) of compound matrices (the p x p minors of H), and as
    C_p(H)^-1 = C_p(H^-1) its conjugate is inverted by minors of H^-1 alone.

    Each compound C_p(H) and C_p(H^-1) is built once with its conjugate (C_0
    = [[1]] and C_1 = M take no determinant), and ``block``, ``conj_block``
    and ``conj_block_inverse`` are each one Kronecker product of two cached
    compounds.  Positivity is certified on the n leading principal minors
    of H, corner entries of its compounds, by exact sign evaluation at pi.
    """

    __slots__ = ("n", "hermitian_block", "hermitian_inverse", "_compounds", "_block_cache")

    def __init__(self, n: int, h, h_inverse):
        self.n = n
        self.hermitian_block = h
        self.hermitian_inverse = h_inverse
        self._compounds: dict = {}
        self._block_cache: dict = {}
        self._validate()

    def _validate(self):
        h = self.hermitian_block
        if len(h) != self.n or any(len(row) != self.n for row in h):
            raise ValueError(f"Gram block must be {self.n}x{self.n}")
        for a in range(self.n):
            for b in range(self.n):
                if h[a][b] != h[b][a].conj():
                    raise ValueError("Gram block is not Hermitian")
        # minors of a Hermitian matrix are real
        for k in range(1, self.n + 1):
            if not is_positive(self._compound(k, False)[0][0][0]):
                raise NotPositive(f"Gram block: leading principal minor {k} is not positive")

    def word_inner(self, w1, w2) -> Scalar:
        """<m_w1, m_w2>, an entry of the Gram block of their bidegree."""
        if len(w1) != len(w2):
            raise DegreeMismatch("inner product of words of different degree")
        p, q = word_bidegree(w1, self.n)
        if p != word_bidegree(w2, self.n)[0]:
            return ZERO
        words = block_words(self.n, p, q)
        return self.block(p, q)[words.index(tuple(w1))][words.index(tuple(w2))]

    def block(self, p: int, q: int):
        """Gram matrix of the words of bidegree (p, q) in ``block_words``
        order: C_p(H) (x) conj C_q(H)."""
        return self._kron(p, q, False, False)

    def conj_block(self, p: int, q: int):
        """The conjugate of ``block(p, q)``: conj C_p(H) (x) C_q(H)."""
        return self._kron(p, q, False, True)

    def conj_block_inverse(self, p: int, q: int):
        """Inverse of ``conj_block(p, q)``, the factor every Gram adjoint out
        of that block starts with: conj C_p(H^-1) (x) C_q(H^-1)."""
        return self._kron(p, q, True, True)

    def _kron(self, p: int, q: int, inverse: bool, conj: bool):
        key = (p, q, inverse, conj)
        if key not in self._block_cache:
            left, right = self._compound(p, inverse)[conj], self._compound(q, inverse)[not conj]
            self._block_cache[key] = [[x * y for x in a for y in b] for a in left for b in right]
        return self._block_cache[key]

    def _compound(self, p: int, inverse: bool):
        """(C_p(M), conj C_p(M)) with rows and columns the p-subsets of
        1..n in ``combinations`` order; M is H, or H^-1 with ``inverse``."""
        key = (p, inverse)
        if key not in self._compounds:
            m = self.hermitian_inverse if inverse else self.hermitian_block
            if p <= 1:
                c = m if p else [[ONE]]
            else:
                subsets = list(combinations(range(self.n), p))
                c = [
                    [linalg.det([[m[a][b] for b in cols] for a in rows]) for cols in subsets]
                    for rows in subsets
                ]
            self._compounds[key] = (c, linalg.transpose(c))  # C_p(M) is Hermitian as M is
        return self._compounds[key]
