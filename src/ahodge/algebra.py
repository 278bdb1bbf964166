"""Complexified exterior algebra on an invariant coframe, with bigrading.

Basis one-forms are indexed 1..n (the (1,0) generators) and n+1..2n (their
conjugates), so the fixed index order 1 < ... < n < 1bar < ... < nbar is just
integer order.  A Form is a finitely supported map from strictly increasing
index words to scalars in Q(pi)(i); no zero coefficients are ever stored.

GramData carries the Hermitian inner products of the coframe, and from those
alone computes, per bidegree block, the Gram matrix of words (Gram
determinants, as minors of H) and the factorisation H = L D L^H that puts
the metric in an orthogonal coframe.
``block_words`` fixes the word order of every bidegree block.  No
hand-coded sign tables.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from . import linalg
from .scalars import ONE, ZERO, Scalar, format_scalar, is_positive, join_terms


class DimensionMismatch(ValueError):
    """Operands live over coframes of different dimension."""


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


@lru_cache(maxsize=None)
def merge_words(w1: tuple, w2: tuple):
    """Concatenate-and-sort two strictly increasing words.

    Returns (sign, word) or None when an index repeats.  Cached: there are
    at most 4^(2n) pairs of words."""
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


def leibniz(word, images):
    """The terms (word, sign, coefficient) of a derivation of degree 1 on an
    index word, D(w) = sum_t (-1)^t D(phi_{w_t}) ^ (w without w_t), from
    ``images[j] = {2-word: coefficient}``; a 2-form moves without a sign."""
    for t, j in enumerate(word):
        rest = word[:t] + word[t + 1 :]
        for head, c in images[j].items():
            merged = merge_words(head, rest)
            if merged is not None:
                yield merged[1], merged[0] if t % 2 == 0 else -merged[0], c


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
        return join_terms(parts)

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
    the (1,0)-coframe phi^1..phi^n; the conjugate coframe has Gram matrix
    conj(H) and is orthogonal to it, as for every metric compatible with the
    almost-complex structure.  So words of different bidegree are orthogonal,
    and in ``block_words`` order the Gram block of bidegree (p, q) is the
    Kronecker product C_p(H) (x) conj C_q(H) of compound matrices (the p x p
    minors of H), by Cauchy-Binet.  Each compound is built once.

    Positivity is certified on the n leading principal minors m_k of H,
    corner entries of its compounds, by exact sign evaluation at pi, and
    ``ldl`` reuses them as the pivots of H = L D L^H.
    """

    __slots__ = ("n", "hermitian_block", "_compounds")

    def __init__(self, n: int, h):
        self.n = n
        self.hermitian_block = h
        self._compounds: dict = {}
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
            if not is_positive(self._leading_minor(k)):
                raise NotPositive(f"Gram block: leading principal minor {k} is not positive")

    def _leading_minor(self, k: int) -> Scalar:
        return self._compound(k)[0][0][0] if k else ONE

    def conj_block(self, p: int, q: int):
        """The conjugate of the Gram block of bidegree (p, q): conj C_p(H) (x)
        C_q(H)."""
        left, right = self._compound(p)[1], self._compound(q)[0]
        return [[x * y for x in a for y in b] for a in left for b in right]

    def ldl(self):
        """H = L D L^H exactly, with L unit lower triangular and D the
        positive ratios m_k / m_(k-1) of leading principal minors, as
        (L, [D_1..D_n]).  In the coframe L^-1 phi the Gram block is D."""
        h, n = self.hermitian_block, self.n
        d = [self._leading_minor(k) / self._leading_minor(k - 1) for k in range(1, n + 1)]
        l = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        for j in range(n):
            for i in range(j + 1, n):
                s = h[i][j]
                for k in range(j):
                    s = s - l[i][k] * d[k] * l[j][k].conj()
                l[i][j] = s / d[j]
        return l, d

    def _compound(self, p: int):
        """(C_p(H), conj C_p(H)) with rows and columns the p-subsets of 1..n
        in ``combinations`` order."""
        if p not in self._compounds:
            m = self.hermitian_block
            if p <= 1:
                c = m if p else [[ONE]]
            else:
                subsets = list(combinations(range(self.n), p))
                c = [
                    [linalg.det([[m[a][b] for b in cols] for a in rows]) for cols in subsets]
                    for rows in subsets
                ]
            self._compounds[p] = (c, linalg.transpose(c))  # C_p(H) is Hermitian as H is
        return self._compounds[p]
