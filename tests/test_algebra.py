import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahodge import linalg
from ahodge.algebra import (
    DimensionMismatch,
    Form,
    GramData,
    NotPositive,
    block_words,
    word_bidegree,
    words_of_degree,
)
from ahodge.scalars import I, ONE, Scalar, ZERO, sign_at_pi
from util import (
    DegreeMismatch,
    S,
    check_ldl,
    form,
    gram_determinant,
    hodge_star,
    inner_product,
    volume,
    word,
    word_inner,
)

N = 3
all_words = [w for k in range(7) for w in words_of_degree(N, k)]
monomials = st.sampled_from(all_words)
small_coeffs = st.sampled_from(
    [ONE, -ONE, I, Scalar.rational(1, 2), Scalar.pi_power(1), Scalar.rational(-3)]
)


@st.composite
def forms(draw):
    total = Form.zero(N)
    for _ in range(draw(st.integers(0, 3))):
        total = total + Form.monomial(N, draw(monomials), draw(small_coeffs))
    return total


def test_wedge_examples():
    phi1 = Form.monomial(N, (1,))
    phi2b = Form.monomial(N, (5,))
    assert phi1.wedge(phi1).is_zero()
    assert phi1.wedge(phi2b) == Form.monomial(N, (1, 5))
    assert phi2b.wedge(phi1) == -Form.monomial(N, (1, 5))


@settings(max_examples=80, deadline=None)
@given(monomials, monomials)
def test_wedge_graded_anticommutation(w1, w2):
    a, b = Form.monomial(N, w1), Form.monomial(N, w2)
    sign = -ONE if (len(w1) * len(w2)) % 2 else ONE
    assert a.wedge(b) == b.wedge(a).scale(sign)


@settings(max_examples=60, deadline=None)
@given(monomials, monomials, monomials)
def test_wedge_associative(w1, w2, w3):
    a, b, c = (Form.monomial(N, w) for w in (w1, w2, w3))
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


@settings(max_examples=60, deadline=None)
@given(forms(), forms())
def test_wedge_bilinear(a, b):
    c = Scalar.rational(3, 7)
    assert a.scale(c).wedge(b) == a.wedge(b).scale(c)
    assert a.wedge(b.scale(c)) == a.wedge(b).scale(c)


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Form.monomial(2, (1,)).wedge(Form.monomial(3, (1,)))


@settings(max_examples=60, deadline=None)
@given(forms())
def test_bidegree_split_reassembles(alpha):
    parts = alpha.bidegree_split()
    total = Form.zero(N)
    for (p, q), part in parts.items():
        for w in part.coeffs:
            assert (sum(1 for j in w if j <= N), sum(1 for j in w if j > N)) == (p, q)
        total = total + part
    assert total == alpha


def test_bidegree_split_examples():
    alpha = Form.monomial(N, (1, 5)) + Form.monomial(N, (4, 5))
    parts = alpha.bidegree_split()
    assert set(parts) == {(1, 1), (0, 2)}
    assert parts[(1, 1)] == Form.monomial(N, (1, 5))
    assert Form.zero(N).bidegree_split() == {}


def test_bidegree_split_of_family_structure_equation(fls):
    parts = fls.dphi[1].bidegree_split()
    assert set(parts) == {(2, 0), (1, 1), (0, 2)}
    assert parts[(2, 0)] == form(fls, [("c/4", ("1", "3"))])
    assert parts[(1, 1)] == form(
        fls,
        [
            ("-1/(2*a)", ("1", "2b")),
            ("-c/4", ("1", "3b")),
            ("c/4", ("3", "1b")),
        ],
    )
    assert parts[(0, 2)] == form(
        fls, [("-1/(2*a)", ("1b", "2b")), ("c/4", ("1b", "3b"))]
    )


@settings(max_examples=60, deadline=None)
@given(forms())
def test_conj_involution(alpha):
    assert alpha.conj().conj() == alpha


def test_star_star_is_parity_on_all_monomials(fls_metric, iwasawa_ak_metric):
    for h in (fls_metric, iwasawa_ak_metric):
        for w in all_words:
            alpha = Form.monomial(N, w)
            twice = hodge_star(h, hodge_star(h, alpha))
            expect = alpha if len(w) % 2 == 0 else -alpha
            assert twice == expect, w


def test_star_closed_form_values(fls_metric):
    half_i = S("(1/2)*i")
    assert hodge_star(fls_metric, Form.monomial(N, (1, 2))) == Form.monomial(
        N, (1, 2, 3, 6), half_i
    )
    assert hodge_star(fls_metric, Form.monomial(N, (1, 3))) == Form.monomial(
        N, (1, 2, 3, 5), -half_i
    )


def test_star_unit_and_volume(fls_metric):
    h = fls_metric
    one, vol = Form.scalar(N, ONE), volume(h)
    assert hodge_star(h, one) == vol
    assert hodge_star(h, vol) == one
    assert inner_product(h.gram, vol, vol) == ONE


def test_defining_relation_of_star(fls_4pi_metric):
    h = fls_4pi_metric
    vol = volume(h)
    for k in (1, 2):
        for w1 in words_of_degree(N, k):
            for w2 in words_of_degree(N, k):
                a = Form.monomial(N, w1)
                b = Form.monomial(N, w2)
                lhs = a.wedge(hodge_star(h, b.conj()))
                rhs = vol.scale(inner_product(h.gram, a, b))
                assert lhs == rhs


def test_inner_product_values(fls_metric):
    gram = fls_metric.gram
    phi1, phi2 = Form.monomial(N, (1,)), Form.monomial(N, (2,))
    assert inner_product(gram, phi1, phi1) == Scalar.integer(2)
    assert inner_product(gram, phi1, phi2) == ZERO


@settings(max_examples=40, deadline=None)
@given(a=forms(), b=forms())
def test_inner_product_conjugate_symmetric(fls_metric, a, b):
    gram = fls_metric.gram
    da, db = a.degree(), b.degree()
    if a.is_zero() or b.is_zero() or da is None or db is None or da != db:
        return
    assert inner_product(gram, a, b) == inner_product(gram, b, a).conj()


@settings(max_examples=40, deadline=None)
@given(alpha=forms())
def test_inner_product_positive_definite(fls_metric, alpha):
    gram = fls_metric.gram
    if alpha.is_zero() or alpha.degree() is None:
        return
    norm = inner_product(gram, alpha, alpha)
    assert norm.is_real()
    assert sign_at_pi(norm) == 1


def test_inner_product_degree_mismatch(fls_metric):
    with pytest.raises(DegreeMismatch):
        inner_product(fls_metric.gram, Form.monomial(N, (1,)), Form.monomial(N, (1, 2)))


def test_gram_validation_rejects_bad_matrices(fls_metric):
    good = fls_metric.gram
    bad = [row[:] for row in good.hermitian_block]
    bad[0][1] = ONE  # breaks Hermitian symmetry
    with pytest.raises(ValueError, match="not Hermitian"):
        GramData(N, bad)
    indef = [row[:] for row in good.hermitian_block]
    indef[0][0] = -indef[0][0]
    with pytest.raises(NotPositive):
        GramData(N, indef)
    small = [row[:2] for row in good.hermitian_block[:2]]
    with pytest.raises(ValueError, match="must be 3x3"):
        GramData(N, small)


def test_word_helper():
    assert word(3, "1", "2b") == (1, 5)
    assert word(3, "3b", "1") == (1, 6)


quarter = st.sampled_from(
    [ZERO, Scalar.rational(1, 4), Scalar.rational(-1, 4), I * Scalar.rational(1, 4)]
)


@st.composite
def hermitian_blocks(draw):
    """Diagonally dominant Hermitian N x N Gram blocks of the (1,0)-coframe."""
    h = [[ZERO] * N for _ in range(N)]
    for i in range(N):
        h[i][i] = Scalar.integer(draw(st.integers(1, 3)))
        for j in range(i + 1, N):
            x = draw(quarter)
            h[i][j], h[j][i] = x, x.conj()
    return h


@settings(max_examples=40, deadline=None)
@given(hermitian_blocks(), st.integers(0, 2 * N), st.data())
def test_word_inner_is_the_gram_determinant(h, k, data):
    gram = GramData(N, h)
    words = words_of_degree(N, k)
    w1, w2 = data.draw(st.sampled_from(words)), data.draw(st.sampled_from(words))
    assert word_inner(gram, w1, w2) == gram_determinant(h, w1, w2)


@settings(max_examples=40, deadline=None)
@given(hermitian_blocks())
def test_the_gram_block_is_l_d_l_h(h):
    check_ldl(GramData(N, h))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_words_are_the_sorted_words_of_one_bidegree(n):
    for p in range(n + 2):
        for q in range(n + 2):
            words = [w for w in words_of_degree(n, p + q) if word_bidegree(w, n) == (p, q)]
            assert block_words(n, p, q) == words
    assert block_words(n, -1, 1) == block_words(n, 1, -1) == []
