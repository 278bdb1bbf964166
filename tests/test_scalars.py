from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ahodge.scalars import (
    DivisionByZero,
    I,
    ONE,
    PI,
    P_ONE,
    ParseError,
    QQi,
    Scalar,
    ZERO,
    _atan_inv_bounds,
    _pi_enclosure,
    _scalar,
    format_scalar,
    is_one,
    p_is_one,
    parse_scalar,
    pconj,
    pdivmod,
    peval,
    pgcd,
    pnorm,
    pscale,
    sign_at_pi,
)
from util import (
    RefQQi,
    euclid_gcd,
    from_ref,
    is_canonical_form_of,
    long_divmod,
    ref_format,
    ref_padd,
    ref_pmul,
    ref_poly,
    to_ref,
)

rationals = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9
)


@st.composite
def scalars(draw):
    """Small elements of Q(pi)(i): rational + rational*pi (+ i multiples)."""
    a = draw(rationals)
    b = draw(rationals)
    c = draw(rationals)
    value = Scalar.rational(a) + Scalar.pi_power(1, b) + I * Scalar.rational(c)
    if draw(st.booleans()):
        value = value * PI
    return value


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_truth_value_is_nonzero(a):
    # as for Fraction, so the sparse polynomials in fourier drop zero terms
    # of either coefficient type with one test
    assert bool(a) == (not a.is_zero())
    assert not (a - a)


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_inverse_roundtrip(a):
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            a.inv()
    else:
        assert a * a.inv() == ONE


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_conj_is_involutive_automorphism(a, b):
    assert a.conj().conj() == a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_format_parse_roundtrip(a):
    assert parse_scalar(format_scalar(a)) == a


def test_canonical_forms_make_equality_syntactic():
    assert parse_scalar("2/4") == parse_scalar("1/2")
    # (pi^2 - 1)/(pi - 1) reduces to pi + 1
    q = (PI * PI - ONE) / (PI - ONE)
    assert q == PI + ONE
    assert q.num == (PI + ONE).num and q.den == (PI + ONE).den


def test_basic_arithmetic_examples():
    assert Scalar.integer(2).inv() == parse_scalar("1/2")
    assert parse_scalar("4*pi") * parse_scalar("1/2") == parse_scalar("2*pi")
    with pytest.raises(DivisionByZero):
        ZERO.inv()


def test_pi_linear_combinations_with_integers_never_vanish():
    # -4*pi*k + 1 and -4*pi*k - 1 keep a constant term for every integer k
    for k in range(-50, 51):
        for sign in (1, -1):
            value = Scalar.pi_power(1, -4 * k) + Scalar.integer(sign)
            assert not value.is_zero()


def test_pi_times_rational_never_equals_nonzero_rational():
    # pi*k - 1/(2a) is nonzero for k != 0 by transcendence: exact zero test
    for k in range(1, 6):
        for a in (1, 2, 3):
            value = Scalar.pi_power(1, k) - Scalar.rational(1, 2 * a)
            assert not value.is_zero()
            assert sign_at_pi(value) == 1


def test_certified_signs():
    assert sign_at_pi(PI - Scalar.integer(3)) == 1
    assert sign_at_pi(PI - Scalar.integer(4)) == -1
    assert sign_at_pi(ZERO) == 0
    assert sign_at_pi((PI - Scalar.integer(3)) * (PI - Scalar.integer(4))) == -1
    with pytest.raises(ValueError):
        sign_at_pi(I)
    # doubling from 0 bits would never leave 0
    with pytest.raises(ValueError):
        sign_at_pi(PI - Scalar.integer(3), prec=0)


def test_sign_resolves_tight_values():
    # 113 pi - 355 is about -3e-5: needs a finer enclosure than a few bits
    tight = Scalar.pi_power(1, 113) - Scalar.integer(355)
    assert sign_at_pi(tight, prec=8) == -1


# pi truncated to 60 and to 40 decimals; pi - PI_40 < 10^-40 < 2^-100
PI_60 = Fraction("3.141592653589793238462643383279502884197169399375105820974944")
PI_60_UP = PI_60 + Fraction(1, 10**60)
PI_40 = Fraction("3.1415926535897932384626433832795028841971")


@pytest.mark.parametrize("x", [5, 239])
def test_atan_series_bounds_bracket_the_fraction_sum(x):
    # 200 terms are within x^-401 < 2^-900 of atan(1/x)
    atan = sum(Fraction((-1) ** k, (2 * k + 1) * x ** (2 * k + 1)) for k in range(200))
    for n in range(400):
        lo, hi = _atan_inv_bounds(x, n)
        assert lo < atan * 2**n < hi
        assert hi - lo <= n + 2


@pytest.mark.parametrize("bits", [8, 64, 128, 1024])
def test_machin_enclosure_brackets_pi(bits):
    lo, hi = _pi_enclosure(bits)
    assert lo < hi <= lo + 2
    low, high = Fraction(lo, 2**bits), Fraction(hi, 2**bits)
    if high - low > PI_60_UP - PI_60:
        assert low < PI_60 < PI_60_UP < high
    else:
        assert PI_60 < low < high < PI_60_UP


# continued-fraction convergents of pi, alternately below and above it
CONVERGENTS = [
    (3, 1),
    (22, 7),
    (333, 106),
    (355, 113),
    (103993, 33102),
    (104348, 33215),
    (208341, 66317),
    (312689, 99532),
    (833719, 265381),
    (1146408, 364913),
]


@pytest.mark.parametrize("k", range(len(CONVERGENTS)))
def test_convergents_alternate_around_pi(k):
    p, q = CONVERGENTS[k]
    expected = 1 if k % 2 == 0 else -1
    assert sign_at_pi(PI - Scalar.rational(p, q), prec=8) == expected


def test_a_root_within_2_to_the_minus_100_of_pi(monkeypatch):
    requested = []

    def recording(bits):
        requested.append(bits)
        return _pi_enclosure(bits)

    monkeypatch.setattr("ahodge.scalars._pi_enclosure", recording)
    near = PI - Scalar.rational(PI_40.numerator, PI_40.denominator)
    assert sign_at_pi(near) == 1
    assert sign_at_pi(near * (PI - Scalar.integer(4))) == -1
    assert sign_at_pi(near * near) == 1
    assert max(requested) > 128


def _fraction_sign(coeffs, x):
    value = sum(c * x**j for j, c in enumerate(coeffs))
    return (value > 0) - (value < 0)


@settings(max_examples=200, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=6))
def test_sign_matches_the_decimal_bounds_on_pi(coeffs):
    below, above = _fraction_sign(coeffs, PI_60), _fraction_sign(coeffs, PI_60_UP)
    assume(below == above)
    value = Scalar(pnorm(QQi(c) for c in coeffs))
    assert sign_at_pi(value) == below


def test_parser_grammar():
    env = {"a": Scalar.integer(2), "c": parse_scalar("4*pi")}
    assert parse_scalar("1/2") == Scalar.rational(1, 2)
    assert parse_scalar("-(1/2)*i") == -(Scalar.rational(1, 2) * I)
    assert parse_scalar("c/4", env) == PI
    assert parse_scalar("pi^2") == PI * PI
    assert parse_scalar("i*pi/(a*1)", env) == I * PI * Scalar.rational(1, 2)
    assert parse_scalar("2 + 3*i - 1") == Scalar.integer(1) + Scalar.integer(3) * I
    assert parse_scalar("i^2") == -ONE


@pytest.mark.parametrize(
    "bad",
    ["", "1 +", "unknown_name", "pi^x", "(1", "1/0", "2 ** 3", "0^-1", "(pi-pi)^-2"],
)
def test_parser_rejects_malformed_input(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_scalar("1 +", lineno=7)
    assert "line 7" in str(err.value)


# -- constant-operand fast paths against the pgcd reference normalisation ----

gaussian = st.builds(QQi, rationals, st.one_of(st.just(Fraction(0)), rationals))
nonzero_gaussian = gaussian.filter(lambda c: not c.is_zero())
polys = st.lists(gaussian, max_size=4).map(pnorm)


def _reference(num, den):
    """Canonical (num, den) by the full route: the Euclidean monic gcd and
    long division of tests/util.py, then a monic den."""
    if not num:
        return (), P_ONE
    g = euclid_gcd(num, den)
    num, den = long_divmod(num, g)[0], long_divmod(den, g)[0]
    inv = den[-1].inv()
    return pscale(num, inv), pscale(den, inv)


@settings(max_examples=80, deadline=None)
@given(polys, nonzero_gaussian, st.booleans())
def test_constant_operand_matches_reference(poly, const, constant_den):
    num, den = (poly, (const,)) if constant_den else ((const,), poly)
    if not den:
        return
    value = Scalar(num, den)
    assert (value.num, value.den) == _reference(num, den)


@settings(max_examples=80, deadline=None)
@given(gaussian, polys)
def test_the_tests_for_one_match_equality(c, poly):
    # a one built by arithmetic is a new object, so only its triple says 1
    for value in (c, c * c.inv() if not c.is_zero() else c, QQi(1)):
        assert is_one(value) == (value == QQi(1))
    for p in (poly, (c,), P_ONE, (QQi(1),), tuple(QQi(1) for _ in range(2))):
        assert p_is_one(p) == (p == (QQi(1),))


@settings(max_examples=80, deadline=None)
@given(gaussian, gaussian)
def test_constant_arithmetic_matches_reference(a, b):
    x, y = (Scalar((c,)) if not c.is_zero() else ZERO for c in (a, b))
    for value, num in (
        (x + y, pnorm((a + b,))),
        (x * y, pnorm((a * b,))),
        (x.conj(), pnorm((a.conj(),))),
    ):
        assert (value.num, value.den) == _reference(num, P_ONE)


@settings(max_examples=80, deadline=None)
@given(gaussian, gaussian)
def test_gaussian_product_and_sum_match_full_formula(a, b):
    prod, total = a * b, a + b
    assert (prod.re, prod.im) == (a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)
    assert (total.re, total.im) == (a.re + b.re, a.im + b.im)


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_conjugate_is_canonical_without_renormalising(a, b):
    if b.is_zero():
        return
    x = a / b
    c = x.conj()
    assert (c.num, c.den) == _reference(pconj(x.num), pconj(x.den))


# -- gcds only where lowest terms need them, against the reference ----------

# roots of the linear factors: real, imaginary, zero and Gaussian
roots = st.sampled_from(
    [QQi(Fraction(1, 2)), QQi(-2), QQi(0, 1), QQi(0), QQi(Fraction(1, 3), Fraction(-2, 5))]
)
linear_factors = st.builds(lambda r, c: (-r * c, c), roots, nonzero_gaussian)
quadratic_factors = st.builds(
    lambda c0, c1: (c0, c1, QQi(1)), nonzero_gaussian, gaussian
)
factors = st.one_of(linear_factors, quadratic_factors)
small_polys = st.lists(gaussian, max_size=3).map(pnorm)
nonzero_polys = small_polys.filter(bool)


def _raw_mul(p, q):
    """The product of QQi polynomials through the Fraction-pair reference."""
    return from_ref(ref_pmul(to_ref(p), to_ref(q)))


def _raw_add(p, q):
    return from_ref(ref_padd(to_ref(p), to_ref(q)))


def _canonical(num, den) -> Scalar:
    return _scalar(*_reference(num, den))


def _pair(value: Scalar):
    return value.num, value.den


@settings(max_examples=100, deadline=None)
@given(factors, small_polys, nonzero_polys, small_polys, nonzero_polys)
def test_products_cancel_a_factor_shared_across(f, a, b, c, d):
    # num(x) and den(y) share f; x * y, y * x and x / y must cancel it
    fa, fd = _raw_mul(f, a), _raw_mul(f, d)
    x, y = _canonical(fa, b), _canonical(c, fd)
    raw = (_raw_mul(x.num, y.num), _raw_mul(x.den, y.den))
    expected = _reference(*raw)
    assert _pair(x * y) == _pair(y * x) == expected
    if not y.is_zero():
        assert _pair(x / y) == _reference(_raw_mul(x.num, y.den), _raw_mul(x.den, y.num))


@settings(max_examples=100, deadline=None)
@given(factors, st.booleans(), small_polys, nonzero_polys, small_polys, nonzero_polys)
def test_sums_over_shared_and_coprime_denominators(f, shared, a, b, c, d):
    # with ``shared`` both denominators carry f; otherwise y's is d alone,
    # a constant or, almost always, coprime to x's
    x = _canonical(a, _raw_mul(f, b))
    y = _canonical(c, _raw_mul(f, d) if shared else d)
    for value, sign in ((x + y, 1), (x - y, -1)):
        ny = y.num if sign > 0 else tuple(-t for t in y.num)
        raw_num = _raw_add(_raw_mul(x.num, y.den), _raw_mul(ny, x.den))
        assert _pair(value) == _reference(raw_num, _raw_mul(x.den, y.den))


# -- the constant and unit paths, on every kind of operand ------------------

# (num, den) before normalisation: zero, +-1, +-i, a Gaussian constant, a
# pi-polynomial and a rational function
raw_operands = st.one_of(
    st.just(((), P_ONE)),
    st.sampled_from([(QQi(1),), (QQi(-1),), (QQi(0, 1),), (QQi(0, -1),)]).map(lambda n: (n, P_ONE)),
    nonzero_gaussian.map(lambda c: ((c,), P_ONE)),
    nonzero_polys.map(lambda p: (p, P_ONE)),
    st.tuples(small_polys, st.builds(_raw_mul, factors, nonzero_polys)),
)


def _assert_canonical(value: Scalar):
    for c in value.num + value.den:
        assert c.d > 0 and gcd(c.a, c.b, c.d) == 1, (c.a, c.b, c.d)
    if len(value.den) == 1:
        assert (value.den[0].a, value.den[0].b, value.den[0].d) == (1, 0, 1)
    # over tau^k, k > 0, lowest terms leave tau out of the numerator
    if len(value.den) > 1 and all(c.is_zero() for c in value.den[:-1]):
        assert not value.num[0].is_zero()


def _check_against_the_reference(x: Scalar, y: Scalar):
    """x * y, y * x, x + y, x - y, -y, x.conj(), x + y - x, y.inv() and x / y
    against the full route, each of them canonical."""
    (xn, xd), (yn, yd) = _pair(x), _pair(y)
    neg_yn = tuple(-c for c in yn)
    checks = [
        (x * y, _raw_mul(xn, yn), _raw_mul(xd, yd)),
        (y * x, _raw_mul(xn, yn), _raw_mul(xd, yd)),
        (x + y, _raw_add(_raw_mul(xn, yd), _raw_mul(yn, xd)), _raw_mul(xd, yd)),
        (x - y, _raw_add(_raw_mul(xn, yd), _raw_mul(neg_yn, xd)), _raw_mul(xd, yd)),
        (-y, neg_yn, yd),
        (x.conj(), pconj(xn), pconj(xd)),
        # over tau^k, x + y - x must cancel the powers of tau y lacks
        (x + y - x, yn, yd),
        # a sum that cancels must be the zero scalar itself
        (y + (-y), (), P_ONE),
        (y - y, (), P_ONE),
    ]
    if y.is_zero():
        with pytest.raises(DivisionByZero):
            y.inv()
    else:
        checks.append((y.inv(), yd, yn))
        checks.append((x / y, _raw_mul(xn, yd), _raw_mul(xd, yn)))
    for value, num, den in checks:
        assert _pair(value) == _reference(num, den)
        _assert_canonical(value)


@settings(max_examples=200, deadline=None)
@given(raw_operands, raw_operands)
def test_constant_and_unit_paths_match_the_reference(first, second):
    x, y = _canonical(*first), _canonical(*second)
    _check_against_the_reference(x, y)
    assert x * ONE == x == ONE * x
    assert y * -ONE == -y == -ONE * y


# -- Laurent polynomials: powers of tau cancel by shifting -------------------

# numerators with up to two low zero coefficients over c * tau^k, k <= 3 and c
# not monic, next to (pi - r) tau^k denominators and constants
low_zero_polys = st.builds(lambda j, p: pnorm((QQi(0),) * j + p), st.integers(0, 2), small_polys)
tau_powers = st.builds(lambda k, c: (QQi(0),) * k + (c,), st.integers(0, 3), nonzero_gaussian)
laurent_operands = st.one_of(
    st.tuples(low_zero_polys, tau_powers),
    st.tuples(low_zero_polys, st.builds(_raw_mul, factors, tau_powers)),
    nonzero_gaussian.map(lambda c: ((c,), P_ONE)),
)


@settings(max_examples=200, deadline=None)
@given(laurent_operands, laurent_operands)
def test_laurent_paths_match_the_reference(first, second):
    _check_against_the_reference(_canonical(*first), _canonical(*second))


def test_laurent_edge_cases():
    r, two = Scalar.rational(1, 504), Scalar.integer(2)
    assert Scalar.integer(-252) * PI * (r / PI) == Scalar.rational(-1, 2)
    assert PI.inv() - PI.inv() is ZERO
    assert PI * (PI * PI).inv() == PI.inv() == (PI * PI).inv() * PI
    # the sum keeps a low zero that tau^2 cancels
    assert (PI + ONE) / (PI * PI) - ONE / (PI * PI) == PI.inv()
    value = r / PI + two / (PI * PI)
    raw = _raw_add(_raw_mul(r.num, (QQi(0), QQi(1))), two.num)
    assert _pair(value) == _reference(raw, (QQi(0), QQi(0), QQi(1)))
    _assert_canonical(value)


@settings(max_examples=150, deadline=None)
@given(linear_factors, st.one_of(st.just(()), small_polys, factors), st.booleans(), small_polys)
def test_linear_gcd_matches_euclid(lin, other, multiple, extra):
    # ``multiple`` makes lin divide the other operand, so the root test hits
    if multiple:
        other = _raw_mul(lin, extra)
    expected = euclid_gcd(lin, other)
    assert pgcd(lin, other) == pgcd(other, lin) == expected
    root = -(lin[0] * lin[1].inv())
    assert (expected != P_ONE) == peval(other, root).is_zero()


def test_linear_gcd_edge_operands():
    lin = (QQi(3), QQi(2))  # 2 tau + 3, root -3/2
    monic = (QQi(Fraction(3, 2)), QQi(1))
    for other in [(), (QQi(5),), (QQi(0, 1),), lin, _raw_mul(lin, lin)]:
        assert pgcd(lin, other) == pgcd(other, lin) == euclid_gcd(lin, other)
    assert pgcd(lin, ()) == monic
    assert pgcd((QQi(7),), lin) == P_ONE


real_coeffs = st.builds(QQi, rationals)


@settings(max_examples=80, deadline=None)
@given(st.lists(real_coeffs, max_size=3).map(pnorm), st.lists(real_coeffs, max_size=3).map(pnorm))
def test_conjugate_of_a_real_scalar_is_itself(num, den):
    if not den:
        return
    x = _canonical(num, den)
    assert x.conj() is x
    assert x.is_real()
    y = x + I
    assert y.conj() is not y and y.conj() == x - I


@settings(max_examples=80, deadline=None)
@given(scalars(), scalars())
def test_equality_is_syntactic(a, b):
    # the rule mat_eq and Form.__eq__ relied on before: a difference that is zero
    assert (a == b) == (a - b).is_zero()
    assert (a == _canonical(*_pair(b))) == (a - b).is_zero()


# -- the integer-triple QQi against the Fraction-pair reference -------------

heights = st.one_of(st.integers(-9, 9), st.integers(-(10**30), 10**30))
# Fraction inputs with signed denominators, ints, zero, large heights
parts = st.one_of(
    st.just(0), heights, st.builds(Fraction, heights, heights.filter(bool))
)
# (re, im) inputs, purely imaginary ones included
gaussian_parts = st.one_of(st.tuples(parts, parts), st.tuples(st.just(0), parts))


def _agrees(z, ref):
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1, (z.a, z.b, z.d)
    assert (z.re, z.im) == (ref.re, ref.im)
    assert isinstance(z.re, Fraction) and isinstance(z.im, Fraction)
    assert z.is_zero() == ref.is_zero()


@settings(max_examples=200, deadline=None)
@given(gaussian_parts, gaussian_parts)
def test_qqi_matches_the_fraction_reference(p, q):
    x, y, rx, ry = QQi(*p), QQi(*q), RefQQi(*p), RefQQi(*q)
    _agrees(x, rx)
    for z, rz in (
        (x + y, rx + ry),
        (x - y, rx - ry),
        (x * y, rx * ry),
        (-x, -rx),
        (x.conj(), rx.conj()),
    ):
        _agrees(z, rz)
    if ry.is_zero():
        with pytest.raises(DivisionByZero):
            y.inv()
        with pytest.raises(DivisionByZero):
            x / y
    else:
        _agrees(y.inv(), ry.inv())
        _agrees(x / y, rx / ry)
    assert (x == y) == (rx == ry)


@settings(max_examples=200, deadline=None)
@given(gaussian_parts, gaussian_parts)
def test_qqi_equal_values_have_one_triple_and_one_hash(p, q):
    x, y = QQi(*p), QQi(*q)
    routes = [(x * y, y * x), ((x + y) - y, x), (x.conj().conj(), x), (-(-x), x)]
    routes.append((x - x, QQi()))
    if not y.is_zero():
        routes.append(((x / y) * y, x))
    if not x.is_zero():
        routes.append((x.inv().inv(), x))
    for u, v in routes:
        assert (u.a, u.b, u.d) == (v.a, v.b, v.d)
        assert u == v and hash(u) == hash(v)
    if RefQQi(*p) == RefQQi(*q):
        assert x == y and hash(x) == hash(y)


def test_qqi_zero_and_signs_are_canonical():
    assert (QQi().a, QQi().b, QQi().d) == (0, 0, 1)
    half = QQi(Fraction(1, -2), Fraction(3, 4))
    assert (half.a, half.b, half.d) == (-2, 3, 4)
    minus_half = QQi(-2).inv()
    assert (minus_half.a, minus_half.b, minus_half.d) == (-1, 0, 2)
    assert QQi(0, 2).inv() == QQi(0, Fraction(-1, 2))


coeffs = st.one_of(
    rationals,
    st.builds(
        Fraction,
        st.integers(-(10**12), 10**12),
        st.integers(1, 10**12),
    ),
)
pi_coeff_parts = st.tuples(coeffs, st.one_of(st.just(Fraction(0)), coeffs))


@st.composite
def pi_fractions(draw):
    """A Scalar with pi-polynomial numerator and denominator, and the same
    fraction as RefQQi polynomials (not reduced)."""
    num = draw(st.lists(pi_coeff_parts, max_size=3))
    den = draw(
        st.lists(pi_coeff_parts, min_size=1, max_size=3).filter(
            lambda cs: any(re or im for re, im in cs)
        )
    )
    value = Scalar(pnorm(QQi(*c) for c in num), pnorm(QQi(*c) for c in den))
    return value, ref_poly(RefQQi(*c) for c in num), ref_poly(RefQQi(*c) for c in den)


def _ref_conj(p):
    return tuple(c.conj() for c in p)


@settings(max_examples=80, deadline=None)
@given(pi_fractions(), pi_fractions())
def test_scalar_arithmetic_and_text_match_the_reference(first, second):
    (x, xn, xd), (y, yn, yd) = first, second
    checks = [
        (x, xn, xd),
        (x + y, ref_padd(ref_pmul(xn, yd), ref_pmul(yn, xd)), ref_pmul(xd, yd)),
        (x * y, ref_pmul(xn, yn), ref_pmul(xd, yd)),
        (x.conj(), _ref_conj(xn), _ref_conj(xd)),
    ]
    if y.is_zero():
        with pytest.raises(DivisionByZero):
            x / y
    else:
        checks.append((x / y, ref_pmul(xn, yd), ref_pmul(xd, yn)))
    for value, num, den in checks:
        assert is_canonical_form_of(value.num, value.den, num, den)
        assert format_scalar(value) == ref_format(to_ref(value.num), to_ref(value.den))
