"""Exact scalar arithmetic in the field Q(pi)(i).

A scalar is a rational function in one transcendental symbol tau (evaluated
at pi whenever a sign is needed) with Gaussian-rational coefficients, kept in
canonical form: numerator and denominator coprime, denominator monic.  Each
coefficient is one integer triple (a + b*i)/d with d > 0 and
gcd(a, b, d) == 1.  With that normalization equality is syntactic, so zero
tests are exact; in particular expressions like ``-4*pi*k + 1`` with integer
``k`` are provably nonzero without any floating point: ``==`` compares
the coefficient triples and forms no difference.

The arithmetic takes a polynomial gcd only where lowest terms can need one
(Henrici, J. ACM 3, 1956; Knuth, TAOCP vol. 2, 4.5.1).  A product cancels
crosswise, gcd(n1, d2) and gcd(n2, d1), each skipped when a side is
constant.  A sum over different denominators takes g = gcd(d1, d2), skipped
when one is constant; g = 1 leaves the sum in lowest terms, and otherwise
one more gcd with g finishes it.  Laurent polynomials, each over a power
of tau, take none: their coefficient tuples shift, and only low zeros of
a numerator cancel against tau^k.  An inverse and a conjugate take none,
and a conjugate with real coefficients is the scalar itself.  A gcd with an
operand of degree 1 is a root test: the other operand evaluated at its root.
A pi-free constant, one coefficient over the denominator (1,), meets
another in one Gaussian-rational step (a product, sum, difference,
negation, inverse or conjugate), and a factor 1 or -1 gives the other
operand, negated for -1.

Sign queries (needed only for inequalities, e.g. metric positivity) evaluate
the two polynomials exactly in integers on an interval enclosure of pi from
Machin's formula, doubling the precision until zero is excluded.
Transcendence of pi guarantees termination for nonzero inputs, and the
package uses no approximate arithmetic.

Manifest expressions are compiled, not interpreted: ``compile_text`` parses
a text once per process into a tree whose parameter-free parts are already
values, and ``parse_text`` evaluates that tree under the bound parameters,
raising the errors a value causes where the parse would have met them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache, partial
from math import gcd, lcm


class DivisionByZero(ZeroDivisionError):
    """Inversion or division by the zero scalar."""


class ParseError(ValueError):
    """Malformed scalar or manifest expression; carries a line number."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


_new = object.__new__


def _triple(a: int, b: int, d: int) -> "QQi":
    """The QQi (a + b*i)/d for a triple already in canonical form."""
    z = _new(QQi)
    z.a, z.b, z.d = a, b, d
    return z


def _reduced(a: int, b: int, d: int) -> "QQi":
    """The QQi (a + b*i)/d for d > 0, divided through by gcd(a, b, d)."""
    g = gcd(a, b, d)
    return _triple(a, b, d) if g == 1 else _triple(a // g, b // g, d // g)


class QQi:
    """Gaussian rational (a + b*i)/d held as three ints with d > 0 and
    gcd(a, b, d) == 1, so each value has exactly one triple and equality is
    componentwise; zero is (0, 0, 1).  ``re`` and ``im`` read the parts as
    Fractions."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        d, e = self.d, other.d
        if d == e:
            if d == 1:
                return _triple(self.a + other.a, self.b + other.b, 1)
            return _reduced(self.a + other.a, self.b + other.b, d)
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    def __sub__(self, other):
        d, e = self.d, other.d
        if d == e:
            if d == 1:
                return _triple(self.a - other.a, self.b - other.b, 1)
            return _reduced(self.a - other.a, self.b - other.b, d)
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __neg__(self):
        return _triple(-self.a, -self.b, self.d)

    def __mul__(self, other):
        a, b, c, e = self.a, self.b, other.a, other.b
        # a zero imaginary part drops its two products
        if not b:
            re, im = a * c, a * e
        elif not e:
            re, im = a * c, b * c
        else:
            re, im = a * c - b * e, a * e + b * c
        d = self.d * other.d
        return _triple(re, im, 1) if d == 1 else _reduced(re, im, d)

    def inv(self):
        a, b, d = self.a, self.b, self.d
        if b:
            return _reduced(d * a, -d * b, a * a + b * b)
        if not a:
            raise DivisionByZero("1/0 in QQi")
        # gcd(a, d) == 1 already; only the sign moves to the numerator
        return _triple(d, 0, a) if a > 0 else _triple(-d, 0, -a)

    def __truediv__(self, other):
        return self * other.inv()

    def conj(self):
        return _triple(self.a, -self.b, self.d) if self.b else self

    def is_zero(self):
        return not self.a and not self.b

    def __eq__(self, other):
        return isinstance(other, QQi) and (
            self.a == other.a and self.b == other.b and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"QQi({self.re}, {self.im})"


QQI_ZERO = QQi(0)
QQI_ONE = QQi(1)
QQI_I = QQi(0, 1)


# Polynomials over QQi are tuples of coefficients, ascending degree, no
# trailing zeros.  The empty tuple is the zero polynomial.

P_ZERO: tuple = ()
P_ONE = (QQI_ONE,)


def is_one(c: QQi) -> bool:
    """c == 1 by identity, else by its triple: no ``__eq__`` dispatch."""
    return c is QQI_ONE or (c.a == 1 and c.d == 1 and not c.b)


def p_is_one(p) -> bool:
    """p == P_ONE by identity, else by the triple of its one coefficient."""
    return p is P_ONE or (len(p) == 1 and is_one(p[0]))


def pnorm(coeffs) -> tuple:
    cs = list(coeffs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def padd(p, q):
    if not p:
        return q
    if not q:
        return p
    if len(p) == 1 and len(q) == 1:
        c = p[0] + q[0]
        return P_ZERO if c.is_zero() else (c,)
    n = max(len(p), len(q))
    out = []
    for k in range(n):
        a = p[k] if k < len(p) else QQI_ZERO
        b = q[k] if k < len(q) else QQI_ZERO
        out.append(a + b)
    return pnorm(out)


def psub(p, q):
    if len(p) < len(q):
        return pneg(psub(q, p))
    out = list(p)
    for k, c in enumerate(q):
        out[k] -= c
    return pnorm(out)


def pneg(p):
    return tuple([-c for c in p])


def pmul(p, q):
    if not p or not q:
        return P_ZERO
    if len(p) == 1 and len(q) == 1:
        c = p[0] * q[0]
        return P_ZERO if c.is_zero() else (c,)
    if p_is_one(p):
        return q
    if p_is_one(q):
        return p
    out = [QQI_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            c = out[i + j]
            # the first product into a slot needs no sum
            out[i + j] = a * b if c is QQI_ZERO else c + a * b
    return pnorm(out)


def pscale(p, c: QQi):
    if c.is_zero() or not p:
        return P_ZERO
    # the leading coefficient times c != 0 is nonzero: no trailing zero
    return tuple([a * c for a in p])


def pdivmod(p, q):
    """Quotient and remainder of p by q, by long division from the top."""
    if not q:
        raise DivisionByZero("polynomial division by zero")
    d = len(q) - 1
    if len(p) <= d:
        return P_ZERO, pnorm(p)
    r = list(p)
    lead_inv = None if is_one(q[-1]) else q[-1].inv()
    quot = [QQI_ZERO] * (len(p) - d)
    for k in range(len(p) - 1 - d, -1, -1):
        c = r[k + d]
        if c.is_zero():
            continue
        if lead_inv is not None:
            c = c * lead_inv
        quot[k] = c
        # r[k + d] - c * q[d] is zero by the choice of c and is not read again
        for j in range(d):
            r[k + j] = r[k + j] - c * q[j]
    return pnorm(quot), pnorm(r[:d])


def pmonic(p):
    if not p:
        return p
    lead = p[-1]
    if is_one(lead):
        return p
    return pscale(p, lead.inv())


def peval(p, x: QQi) -> QQi:
    """p(x) by Horner's rule."""
    out = QQI_ZERO
    for c in reversed(p):
        out = out * x + c
    return out


def pgcd(p, q):
    """Monic gcd over Q(i).  An operand c1*tau + c0 of degree 1 is tested by
    its root: the gcd is tau + c0/c1 when the other operand vanishes at
    -c0/c1, else 1.  Otherwise the Euclidean algorithm."""
    for lin, other in ((p, q), (q, p)):
        if len(lin) == 2:
            c0 = lin[0] if is_one(lin[1]) else lin[0] * lin[1].inv()
            return (c0, QQI_ONE) if peval(other, -c0).is_zero() else P_ONE
    a, b = p, q
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pmonic(a)


def pconj(p):
    return tuple(c.conj() for c in p)


def _low_zeros(p, k: int) -> int:
    """min(v, k) for the number v of low zero coefficients of a nonzero p."""
    s = 0
    while s < k and p[s].is_zero():
        s += 1
    return s


def _tau_power(den) -> int:
    """k when the monic den is tau^k, else -1."""
    for k, c in enumerate(den):
        if c.a or c.b:
            return k if k == len(den) - 1 else -1


def _scalar(num, den) -> "Scalar":
    """The Scalar num/den for a pair already in canonical form."""
    s = _new(Scalar)
    s.num, s.den = num, den
    return s


def _over(num, den) -> "Scalar":
    """num / den in lowest terms for a canonical den: over tau^k by
    striking the common low zeros, over any other den by a gcd."""
    if not num:
        return ZERO
    # a nonzero constant is a unit, and 1 divides everything
    if len(num) == 1 or p_is_one(den):
        return _scalar(num, den)
    k = _tau_power(den)
    if k < 0:
        return Scalar(num, den)
    s = _low_zeros(num, k)
    return _scalar(num[s:], den[s:])


class Scalar:
    """Element of Q(pi)(i) as a canonical fraction num/den of tau-polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE):
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            self.num = P_ZERO
            self.den = P_ONE
            return
        # a nonzero constant is a unit, so the monic gcd is then 1
        if len(num) > 1 and len(den) > 1:
            g = pgcd(num, den)
            if not p_is_one(g):
                num = pdivmod(num, g)[0]
                den = pdivmod(den, g)[0]
        lead = den[-1]
        if not is_one(lead):
            inv = lead.inv()
            num = pscale(num, inv)
            den = pscale(den, inv)
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_qqi(c: QQi) -> "Scalar":
        if c.is_zero():
            return ZERO
        return _scalar((c,), P_ONE)

    @staticmethod
    def rational(p, q=1) -> "Scalar":
        return Scalar.from_qqi(QQi(Fraction(p, q)))

    @staticmethod
    def integer(k: int) -> "Scalar":
        cached = _INT_CACHE.get(k)
        if cached is None:
            cached = Scalar.from_qqi(QQi(k))
            if -64 <= k <= 64:
                _INT_CACHE[k] = cached
        return cached

    @staticmethod
    def pi_power(k: int, coeff=1) -> "Scalar":
        c = QQi(Fraction(coeff)) if not isinstance(coeff, QQi) else coeff
        if c.is_zero():
            return ZERO
        return _scalar(tuple([QQI_ZERO] * k) + (c,), P_ONE)

    # -- field operations ---------------------------------------------

    def __add__(self, other):
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if not n1:
            return other
        if not n2:
            return self
        if len(n1) == 1 == len(n2) and len(d1) == 1 == len(d2):
            c = n1[0] + n2[0]
            return ZERO if c.is_zero() else _scalar((c,), P_ONE)
        if d1 == d2:
            return _over(padd(n1, n2), d1)
        k1 = _tau_power(d1)
        if k1 >= 0 and (k2 := _tau_power(d2)) >= 0:
            # n1 / tau^k1 = n1 tau^(k2 - k1) / tau^k2; the sum keeps the
            # constant term of n2, nonzero as k2 > k1, so it is in lowest terms
            if k1 < k2:
                return _scalar(padd((QQI_ZERO,) * (k2 - k1) + n1, n2), d2)
            return _scalar(padd(n1, (QQI_ZERO,) * (k1 - k2) + n2), d1)
        # a constant (monic) denominator is 1, coprime to the other one
        g = pgcd(d1, d2) if len(d1) > 1 and len(d2) > 1 else P_ONE
        if p_is_one(g):
            # an irreducible factor of d1 divides n2 d1 but not n1 d2 (it
            # divides neither n1 nor d2), so not the sum; likewise for d2
            return _scalar(padd(pmul(n1, d2), pmul(n2, d1)), pmul(d1, d2))
        # Knuth, TAOCP 4.5.1: with e_k = d_k / g and t = n1 e2 + n2 e1, the
        # sum is (t / g2) / (e1 (d2 / g2)) for g2 = gcd(t, g)
        e1, e2 = pdivmod(d1, g)[0], pdivmod(d2, g)[0]
        t = padd(pmul(n1, e2), pmul(n2, e1))
        if not t:
            return ZERO
        g2 = pgcd(t, g) if len(t) > 1 else P_ONE
        if not p_is_one(g2):
            t, d2 = pdivmod(t, g2)[0], pdivmod(d2, g2)[0]
        return _scalar(t, pmul(e1, d2))

    def __sub__(self, other):
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if len(n1) == 1 == len(n2) and len(d1) == 1 == len(d2):
            c = n1[0] - n2[0]
            return ZERO if c.is_zero() else _scalar((c,), P_ONE)
        if d1 == d2:
            return _over(psub(n1, n2), d1)
        return self + (-other)

    def __neg__(self):
        num = self.num
        if len(num) == 1:
            return _scalar((-num[0],), self.den)
        return _scalar(pneg(num), self.den)

    def __mul__(self, other):
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if not n1 or not n2:
            return ZERO
        # a constant has den (1,); a factor +-1 gives the other operand
        if len(n1) == 1 == len(d1):
            c = n1[0]
            if c.d == 1 and not c.b and (c.a == 1 or c.a == -1):
                return other if c.a == 1 else -other
            if len(n2) == 1 == len(d2):
                # a product of nonzero constants is a nonzero constant
                return _scalar((c * n2[0],), P_ONE)
        if len(n2) == 1 == len(d2):
            c = n2[0]
            if c.d == 1 and not c.b and (c.a == 1 or c.a == -1):
                return self if c.a == 1 else -self
        if p_is_one(d1) and p_is_one(d2):
            return _scalar(pmul(n1, n2), P_ONE)
        k1 = _tau_power(d1)
        if k1 >= 0 and (k2 := _tau_power(d2)) >= 0:
            # lowest terms put num[0] != 0 over tau^k, k > 0, so only powers
            # of tau across cancel: min(v(n1), k2) and min(v(n2), k1)
            t1, t2 = _low_zeros(n1, k2), _low_zeros(n2, k1)
            return _scalar(pmul(n1[t1:], n2[t2:]), (QQI_ZERO,) * (k1 + k2 - t1 - t2) + P_ONE)
        # n1/d1 and n2/d2 are in lowest terms, so gcd(n1 n2, d1 d2) is
        # gcd(n1, d2) gcd(n2, d1); a constant side makes its factor 1
        if len(n1) > 1 and len(d2) > 1:
            g = pgcd(n1, d2)
            if not p_is_one(g):
                n1, d2 = pdivmod(n1, g)[0], pdivmod(d2, g)[0]
        if len(n2) > 1 and len(d1) > 1:
            g = pgcd(n2, d1)
            if not p_is_one(g):
                n2, d1 = pdivmod(n2, g)[0], pdivmod(d1, g)[0]
        return _scalar(pmul(n1, n2), pmul(d1, d2))

    def inv(self):
        num, den = self.num, self.den
        if not num:
            raise DivisionByZero("inverse of zero scalar")
        if len(num) == 1 == len(den):
            return _scalar((num[0].inv(),), P_ONE)
        # num and den stay coprime; only num's leading coefficient moves
        lead = num[-1]
        if is_one(lead):
            return _scalar(den, num)
        c = lead.inv()
        return _scalar(pscale(den, c), pscale(num, c))

    def __truediv__(self, other):
        return self * other.inv()

    def conj(self):
        num, den = self.num, self.den
        if len(num) == 1 == len(den):
            c = num[0]
            return _scalar((c.conj(),), P_ONE) if c.b else self
        if any(c.b for c in num) or any(c.b for c in den):
            # coefficient conjugation keeps num and den coprime and den monic
            return _scalar(pconj(num), pconj(den))
        return self

    # -- predicates and parts -----------------------------------------

    def is_zero(self) -> bool:
        return self.num == P_ZERO

    def __bool__(self) -> bool:
        # nonzero is true, as for Fraction, so polynomial code serves both
        return self.num != P_ZERO

    def is_real(self) -> bool:
        return self == self.conj()

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"Scalar({format_scalar(self)})"

    def __str__(self):
        return format_scalar(self)


_INT_CACHE: dict = {}

ZERO = _scalar(P_ZERO, P_ONE)
ONE = _scalar(P_ONE, P_ONE)
I = _scalar((QQI_I,), P_ONE)
PI = _scalar((QQI_ZERO, QQI_ONE), P_ONE)


# -- pretty printing ---------------------------------------------------


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _coeff_str(c: QQi) -> str:
    """Format a Gaussian rational, parenthesized when it is a sum."""
    if c.im == 0:
        return _frac_str(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        if c.im < 0:
            return f"-({_frac_str(-c.im)})*i"
        return f"({_frac_str(c.im)})*i"
    return f"({_frac_str(c.re)} + ({_frac_str(c.im)})*i)"


def _poly_str(p) -> str:
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c.is_zero():
            continue
        if k == 0:
            parts.append(_coeff_str(c))
            continue
        pi_part = "pi" if k == 1 else f"pi^{k}"
        if is_one(c):
            parts.append(pi_part)
        elif c == QQi(-1):
            parts.append(f"-{pi_part}")
        else:
            cs = _coeff_str(c)
            if "+" in cs or ("/" in cs) or cs.lstrip("-").find("*") >= 0:
                cs = cs if cs.startswith("(") else f"({cs})"
            parts.append(f"{cs}*{pi_part}")
    return join_terms(parts)


def join_terms(parts) -> str:
    """Signed terms written as one sum: a term ``-x`` after the first is
    joined as " - x", any other as " + " and the term."""
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


def format_scalar(s: Scalar) -> str:
    if p_is_one(s.den):
        body = _poly_str(s.num)
        return body
    num = _poly_str(s.num)
    den = _poly_str(s.den)
    return f"({num})/({den})"


# -- parsing -----------------------------------------------------------

_TOKEN_OPS = set("+-*/^(),=[]:")


def tokenize(text: str, lineno: int | None = None):
    tokens = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            j = k
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[k:j]))
            k = j
            continue
        if ch.isalpha() or ch == "_":
            j = k
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[k:j]))
            k = j
            continue
        if ch in _TOKEN_OPS:
            tokens.append(("op", ch))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", lineno)
    return tokens


EXPRESSIONS = 256  # compiled expressions kept per process


class _Node:
    """An operation that waits for bound parameters: ``op`` is "name" (``a``
    the parameter name), "neg" (``a`` the operand) or one of + - * / ^
    (``b`` an int for ^)."""

    __slots__ = ("op", "a", "b")

    def __init__(self, op, a, b=None):
        self.op, self.a, self.b = op, a, b


class _ScalarParser:
    """Recursive descent over +, -, *, /, ^, parentheses, pi, i, rationals,
    parameter names and bracketed lists.

    This is the one expression grammar of the manifest.  It compiles text to
    a tree: a subtree that reads no parameter is folded to its value while
    parsing, and the rest are ``_Node``s, which ``evaluate`` computes under
    bound parameters by the same ``combine``, in the order the parse met
    them.  ``names`` are the parameters in scope.  Subclasses change the
    values by overriding ``atom`` and ``combine``.  A parser that finished
    is kept by ``compile_text`` and never changes again.
    """

    def __init__(self, tokens, names, lineno):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.lineno = lineno
        self.read = []  # operation nodes in the order the parse built them

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def at_op(self, ops: str) -> bool:
        kind, val = self.peek()
        return kind == "op" and val in ops

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val!r}", self.lineno)

    def parse(self, rule: str = "expr"):
        """The tree of the whole token list read by ``rule``: a method name,
        or ``[item]`` for a bracketed list of ``item`` (a tuple of trees)."""
        tree = self.rule(rule)()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input {self.peek()[1]!r}", self.lineno)
        return tree

    def rule(self, name: str):
        if name.startswith("["):
            return partial(self.bracketed, self.rule(name[1:-1]))
        return getattr(self, name)

    def operation(self, a, op: str, b):
        """``a op b``, folded to its value unless a side reads a parameter."""
        if isinstance(a, _Node) or isinstance(b, _Node):
            node = _Node(op, a, b)
            self.read.append(node)
            return node
        return self.combine(a, op, b)

    def evaluate(self, tree, params: dict):
        """The value of ``tree`` with ``params`` bound; a tuple is a list."""
        if isinstance(tree, _Node):
            if tree.op == "name":
                return params[tree.a]
            a = self.evaluate(tree.a, params)
            if tree.op == "neg":
                return -a
            return self.combine(a, tree.op, self.evaluate(tree.b, params))
        if isinstance(tree, tuple):
            return [self.evaluate(item, params) for item in tree]
        return tree

    def combine(self, a, op: str, b):
        """Value of ``a op b`` for op in + - * / ^; ``b`` is an int for ^."""
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "^" and b < 0:
            a, b = self.combine(ONE, "/", a), -b
        if op == "/":
            if b.is_zero():
                raise ParseError("division by zero", self.lineno)
            return a / b
        out = ONE
        for _ in range(b):
            out = out * a
        return out

    def expr(self):
        value = self.term()
        while self.at_op("+-"):
            op = self.take()[1]
            value = self.operation(value, op, self.term())
        return value

    def term(self):
        value = self.factor()
        while self.at_op("*/"):
            op = self.take()[1]
            value = self.operation(value, op, self.factor())
        return value

    def factor(self):
        if self.at_op("+-"):
            op = self.take()[1]
            inner = self.factor()
            if op == "+":
                return inner
            return _Node("neg", inner) if isinstance(inner, _Node) else -inner
        return self.power()

    def power(self):
        base = self.atom()
        if not self.at_op("^"):
            return base
        self.take()
        negative = self.at_op("-")
        if negative:
            self.take()
        kind, val = self.take()
        if kind != "int":
            raise ParseError("exponent must be an integer", self.lineno)
        return self.operation(base, "^", -int(val) if negative else int(val))

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return Scalar.integer(int(val))
        if kind == "name":
            if val == "pi":
                return PI
            if val == "i":
                return I
            if val in self.names:
                return _Node("name", val)
            raise ParseError(f"unknown name {val!r}", self.lineno)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r}", self.lineno)

    def name(self) -> str:
        kind, val = self.take()
        if kind != "name":
            raise ParseError(f"expected a name, got {val!r}", self.lineno)
        return val

    def bracketed(self, item) -> tuple:
        """``[item, item, ...]``, possibly empty; ``item`` is a rule."""
        self.expect_op("[")
        if self.at_op("]"):
            self.take()
            return ()
        out = [item()]
        while self.at_op(","):
            self.take()
            out.append(item())
        self.expect_op("]")
        return tuple(out)


@lru_cache(maxsize=EXPRESSIONS)
def compile_text(grammar: tuple, text: str, lineno, names: tuple, rule: str):
    """(parser, tree): the parser ``grammar[0](tokens, names, lineno,
    *grammar[1:])`` and the tree it read from ``text`` by ``rule``.  Kept
    per key, so each text is parsed once per process; an error is never
    kept, and carries the parser as ``reader`` once the parse began."""
    parser = grammar[0](tokenize(text, lineno), names, lineno, *grammar[1:])
    try:
        return parser, parser.parse(rule)
    except ParseError as exc:
        exc.reader = parser
        raise


def parse_text(grammar: tuple, text: str, params: dict, lineno, rule: str = "expr"):
    """The value of ``text`` with ``params`` bound: the tree of
    ``compile_text``, evaluated."""
    try:
        parser, tree = compile_text(grammar, text, lineno, tuple(params), rule)
    except ParseError as exc:
        # a value error left of the syntax error is raised first, as it was
        # when values were built while reading
        reader = getattr(exc, "reader", None)
        for node in reader.read if reader else ():
            reader.evaluate(node, params)
        raise
    return parser.evaluate(tree, params)


def parse_scalar(text: str, params: dict | None = None, lineno: int | None = None) -> Scalar:
    if not text.strip():
        raise ParseError("empty scalar expression", lineno)
    return parse_text((_ScalarParser,), text, params or {}, lineno)


# -- certified signs at tau = pi ---------------------------------------

_MAX_SIGN_BITS = 1 << 16


def _atan_inv_bounds(x: int, n: int) -> tuple[int, int]:
    """Integers lo < 2^n atan(1/x) < hi for an integer x > 1.

    The series sum_k (-1)^k / ((2k+1) x^(2k+1)) alternates with falling
    terms, so a partial sum that ends on a positive term lies above the
    limit and one that ends on a negative term lies below it.  Each term
    is rounded toward the side its bound needs: floor and ceil of
    2^n / x^(2k+1) are carried down by exact nested integer division.
    """
    x2 = x * x
    # floor and ceil of 2^n / x^(2k+1) for term k
    fl, cl = (1 << n) // x, -(-(1 << n) // x)
    lo = hi = 0
    k = 0
    while True:
        down, up = fl // (2 * k + 1), -(-cl // (2 * k + 1))
        if k % 2 == 0:
            lo, hi = lo + down, hi + up
        elif up <= 1:
            # the lower sum ends on this negative term, the upper one before it
            return lo - up, hi
        else:
            lo, hi = lo - up, hi - down
        fl, cl = fl // x2, -(-cl // x2)
        k += 1


@cache
def _pi_enclosure(bits: int) -> tuple[int, int]:
    """Integers lo < hi with lo / 2^bits < pi < hi / 2^bits and
    hi - lo <= 2, from Machin's pi = 16 atan(1/5) - 4 atan(1/239)."""
    # 2^guard > 128 * bits exceeds the width before the shift: one unit of
    # rounding per term plus the last term, 16 and 4 times over
    guard = bits.bit_length() + 8
    n = bits + guard
    lo5, hi5 = _atan_inv_bounds(5, n)
    lo239, hi239 = _atan_inv_bounds(239, n)
    lo, hi = 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239
    return lo >> guard, -(-hi >> guard)


def integer_coeffs(p) -> list[int]:
    """The real coefficients of p times the lcm of their denominators,
    which is positive and so keeps the roots of p and its sign at every
    point."""
    den = 1
    for c in p:
        if c.b:
            raise ValueError("polynomial has a non-real coefficient; sign undefined")
        den = lcm(den, c.d)
    return [c.a * (den // c.d) for c in p]


def _poly_sign_at_pi(p, prec: int) -> int:
    if not p:
        return 0
    coeffs = integer_coeffs(p)
    if len(coeffs) == 1:
        return 1 if coeffs[0] > 0 else -1
    bits = prec
    while bits <= _MAX_SIGN_BITS:
        # interval Horner: after j steps [low, high] bounds the value
        # times 2^(bits*j); pi > 0, so the sign of each end picks its product
        x_lo, x_hi = _pi_enclosure(bits)
        low = high = coeffs[-1]
        shift = 0
        for c in reversed(coeffs[:-1]):
            shift += bits
            low = (low * x_lo if low >= 0 else low * x_hi) + (c << shift)
            high = (high * x_hi if high >= 0 else high * x_lo) + (c << shift)
        if low > 0:
            return 1
        if high < 0:
            return -1
        bits *= 2
    raise RuntimeError("interval sign determination did not converge")


def sign_at_pi(s: Scalar, prec: int = 128) -> int:
    """Certified sign of a real scalar evaluated at tau = pi.

    Exact zero short-circuits; otherwise interval evaluation starts at
    ``prec`` bits and doubles them until zero is excluded, which
    transcendence of pi guarantees.
    """
    if prec < 1:
        raise ValueError(f"starting precision must be a positive number of bits, got {prec}")
    if s.is_zero():
        return 0
    if not s.is_real():
        raise ValueError("sign requested for a non-real scalar")
    return _poly_sign_at_pi(s.num, prec) * _poly_sign_at_pi(s.den, prec)


def is_positive(s: Scalar) -> bool:
    return sign_at_pi(s) > 0
