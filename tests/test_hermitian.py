import os
import re
import sys
import threading
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahodge import hermitian, linalg
from ahodge.algebra import (
    Form,
    GramData,
    NotPositive,
    block_words,
    word_bidegree,
    words_of_degree,
)
from ahodge.builtins import BUILTINS, builtin_names, get_builtin
from ahodge.cli import RunConfig, compute_report, report_to_dict
from ahodge.hermitian import (
    NotCompatible,
    delta_laplacians_equal,
    metric_for,
    metric_from_gram,
)
from ahodge.manifold import ManifoldSpec, load_spec
from ahodge.scalars import I, ONE, Scalar, ZERO, format_scalar
from util import (
    NotAlmostKahler,
    S,
    adjoint_matrix,
    bidegrees,
    check_ak_identity,
    check_ldl,
    conj_block_inverse,
    conjugated,
    delta_laplacian,
    e_form,
    gram_block,
    gram_matrix,
    hodge_star,
    inner_product,
    laplacian_invariant,
    laplacians_equal_all_degrees,
    laplacian_matrix,
    mat_eq,
    mat_vec,
    metric_from_pair,
    operator_matrix,
    rebase,
    row_space_equal,
    star_matrix,
    volume,
)

N = 3


def test_family_metric_is_unitary_in_the_chosen_coframe():
    # omega =(i/2) sum phi^{j jbar} holds for the family coframe, so the
    # coframe Gram matrix is 2*Id at every parameter point
    for overrides in ({}, {"a": "2", "b": "1", "c": "4*pi"}, {"a": "1", "c": "-3"}):
        spec = get_builtin("fls", overrides)
        h = metric_for(spec)
        expected = [[Scalar.integer(2 if i == j else 0) for j in range(N)] for i in range(N)]
        assert mat_eq(h.gram.hermitian_block, expected)


def test_iwasawa_metric_diagonal(iwasawa_ak_metric):
    h = iwasawa_ak_metric
    expected = [[Scalar.integer(2 if i == j else 0) for j in range(N)] for i in range(N)]
    assert mat_eq(h.gram.hermitian_block, expected)
    assert h.is_almost_kahler


def test_gram_and_omega_routes_agree(iwasawa_std):
    # iwasawa_std declares gram = 2*Id; rebuilding from its fundamental form
    # must give back the same Gram data
    h = metric_for(iwasawa_std)
    h2 = metric_from_pair(h.omega, iwasawa_std)
    assert mat_eq(h.gram.hermitian_block, h2.gram.hermitian_block)


def _other_route(name):
    """The built-in manifest with its metric declared through the other
    [metric] key (omega becomes gram, gram becomes omega), and its metric."""
    text = BUILTINS[name]
    spec = load_spec(text)
    h = metric_for(spec)
    if spec.metric_source[0] == "omega":
        rows = (", ".join(format_scalar(x) for x in row) for row in h.gram.hermitian_block)
        line = "gram = [" + ", ".join(f"[{row}]" for row in rows) + "]"
    else:
        # phi^a = sum_k P[a][k] e^k, so omega has e^{kl} coefficient
        # sum over its words (a, b) of c (P[a][k] P[b][l] - P[a][l] P[b][k]);
        # P inverts the matrix of the e^k in the phi-basis
        idx = range(1, 2 * N + 1)
        P = linalg.inverse([[e_form(spec, k).coefficient((a,)) for a in idx] for k in idx])
        terms = []
        for k in range(2 * N):
            for l in range(k + 1, 2 * N):
                c = ZERO
                for (a, b), w in h.omega.coeffs.items():
                    pa, pb = P[a - 1], P[b - 1]
                    c = c + w * (pa[k] * pb[l] - pa[l] * pb[k])
                if not c.is_zero():
                    assert c.is_real()
                    terms.append(f"({format_scalar(c)})*e{k + 1}{l + 1}")
        line = "omega = " + " + ".join(terms)
    return re.sub(r"^(omega|gram) = .*$", lambda m: line, text, flags=re.M), h


@pytest.mark.parametrize("name", builtin_names())
def test_every_builtin_gives_the_same_report_through_the_other_metric_route(
    name, tmp_path
):
    text, h = _other_route(name)
    path = tmp_path / f"{name}.am"
    path.write_text(text)
    other = load_spec(text)
    assert other.metric_source[0] != load_spec(BUILTINS[name]).metric_source[0]
    h2 = metric_for(other)
    assert mat_eq(h.gram.hermitian_block, h2.gram.hermitian_block)
    assert h.omega == h2.omega and h.is_almost_kahler == h2.is_almost_kahler
    assert _report_summary(RunConfig(str(path))) == _report_summary(
        RunConfig(f"builtin:{name}")
    )


def test_gram_route_known_fundamental_form(iwasawa_std):
    # W = i (H^T)^-1, pinned from the earlier vector-metric construction
    two, third = Scalar.integer(2), Scalar.rational(1, 3)
    h = metric_from_gram([[two, I, ZERO], [-I, two, ZERO], [ZERO, ZERO, ONE]], iwasawa_std)
    assert h.omega.terms() == [
        ((1, 4), two * third * I),
        ((1, 5), -third),
        ((2, 4), third),
        ((2, 5), two * third * I),
        ((3, 6), I),
    ]


@pytest.mark.parametrize("corner", [I * Scalar.integer(2), ONE])
def test_a_non_hermitian_gram_matrix_is_named(iwasawa_std, corner):
    two = Scalar.integer(2)
    hm = [[corner, I, ZERO], [I, two, ZERO], [ZERO, ZERO, two]]
    with pytest.raises(ValueError, match="Gram block is not Hermitian"):
        metric_from_gram(hm, iwasawa_std)


# fls at a = -1 reverses the orientation of omega^3 against e^1...e^6
ROUND_TRIP_SPECS = [
    get_builtin("fls"),
    get_builtin("fls", {"a": "-1"}),
    get_builtin("iwasawa_std"),
]


off_diagonal = st.sampled_from(
    [ZERO, Scalar.rational(1, 4), I * Scalar.rational(-1, 3), S("pi/8"), S("i/(5*pi)")]
)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(ROUND_TRIP_SPECS),
    st.lists(st.sampled_from([S("2"), S("5/2"), S("3*pi")]), min_size=N, max_size=N),
    st.lists(off_diagonal, min_size=3, max_size=3),
)
def test_gram_to_omega_to_gram_round_trip(spec, diagonal, upper):
    # diagonally dominant, so positive definite; pi enters H and omega
    hm = [[ZERO] * N for _ in range(N)]
    for i in range(N):
        hm[i][i] = diagonal[i]
    for (i, j), x in zip(((0, 1), (0, 2), (1, 2)), upper):
        hm[i][j], hm[j][i] = x, x.conj()
    h = metric_from_gram(hm, spec)
    back = metric_from_pair(h.omega, spec)
    assert mat_eq(back.gram.hermitian_block, hm)


def test_almost_kahler_flags(
    fls, fls_nonak, iwasawa_ak, fls_metric, fls_nonak_metric, iwasawa_ak_metric
):
    assert fls_metric.is_almost_kahler
    assert not fls_nonak_metric.is_almost_kahler
    assert iwasawa_ak_metric.is_almost_kahler
    # metric_for reads d omega on a declared real omega, metric_from_pair
    # in the phi-basis
    pairs = ((fls, fls_metric), (fls_nonak, fls_nonak_metric), (iwasawa_ak, iwasawa_ak_metric))
    for spec, h in pairs:
        assert metric_from_pair(h.omega, spec).is_almost_kahler == h.is_almost_kahler


def test_non_positive_pair_rejected(fls):
    e = partial(e_form, fls)
    # flip the sign on the base block while keeping J: indefinite metric
    omega = -e(1).wedge(e(2)) + e(3).wedge(e(6)) + e(4).wedge(e(5))
    with pytest.raises(NotPositive):
        metric_from_pair(omega, fls)


def test_incompatible_pair_rejected(fls):
    # e^{13} has a (2,0) component for every family parameter point
    e = partial(e_form, fls)
    omega = e(1).wedge(e(3)) + e(2).wedge(e(5)) + e(4).wedge(e(6))
    with pytest.raises(NotCompatible):
        metric_from_pair(omega, fls)


def test_degenerate_pair_rejected(fls):
    e = partial(e_form, fls)
    with pytest.raises((NotCompatible, ValueError)):
        metric_from_pair(e(1).wedge(e(2)), fls)


def test_adjoint_defining_property(fls_metric, fls):
    h, spec = fls_metric, fls
    for k in (0, 1, 2):
        m = operator_matrix("dbar", spec, k)
        gs, gt = gram_matrix(h.gram, k), gram_matrix(h.gram, k + 1)
        adj = adjoint_matrix(m, gs, gt)
        src = words_of_degree(N, k)
        tgt = words_of_degree(N, k + 1)
        for i_src in range(len(src)):
            x = [ZERO] * len(src)
            x[i_src] = ONE
            mx = mat_vec(m, x)
            for i_tgt in range(len(tgt)):
                y = [ZERO] * len(tgt)
                y[i_tgt] = ONE
                ay = mat_vec(adj, y)
                lhs = _inner(mx, y, gt)
                rhs = _inner(x, ay, gs)
                assert (lhs - rhs).is_zero()


def _inner(u, v, g):
    total = ZERO
    for i, ui in enumerate(u):
        if ui.is_zero():
            continue
        for j, vj in enumerate(v):
            if not vj.is_zero() and not g[i][j].is_zero():
                total = total + ui * vj.conj() * g[i][j]
    return total


def test_adjoint_involution_and_zero(fls_metric, fls):
    h, spec = fls_metric, fls
    for k in (0, 1, 2, 3):
        m = operator_matrix("dbar", spec, k)
        gs, gt = gram_matrix(h.gram, k), gram_matrix(h.gram, k + 1)
        adj = adjoint_matrix(m, gs, gt)
        back = adjoint_matrix(adj, gt, gs)
        assert mat_eq(back, m)
    zero = linalg.zeros(len(words_of_degree(N, 2)), len(words_of_degree(N, 1)))
    adj0 = adjoint_matrix(zero, gram_matrix(h.gram, 1), gram_matrix(h.gram, 2))
    assert all(x.is_zero() for row in adj0 for x in row)


def test_laplacian_self_adjoint(fls_4pi_metric, fls_4pi):
    h, spec = fls_4pi_metric, fls_4pi
    for which in ("dbar", "deltabar"):
        for k in (0, 1, 2):
            lap = laplacian_matrix(which, h, spec, k)
            g = gram_matrix(h.gram, k)
            size = len(g)
            for i in range(size):
                x = [ZERO] * size
                x[i] = ONE
                lx = mat_vec(lap, x)
                for j in range(size):
                    y = [ZERO] * size
                    y[j] = ONE
                    ly = mat_vec(lap, y)
                    assert (_inner(lx, y, g) - _inner(x, ly, g)).is_zero()


def test_laplacian_kernel_dimensions(fls_metric, fls):
    dbar = laplacian_invariant("dbar", fls_metric, fls)
    assert dbar[(3, 0)].dimension == 1
    assert dbar[(3, 0)].basis[0] == Form.monomial(N, (1, 2, 3))
    assert dbar[(0, 0)].dimension == 1
    deltabar = laplacian_invariant("deltabar", fls_metric, fls)
    assert deltabar[(3, 0)].dimension == 0


def test_laplacian_kernel_is_joint_kernel(fls_metric, fls):
    h, spec = fls_metric, fls
    for which in ("dbar", "deltabar"):
        for k in (1, 2, 3):
            lap = laplacian_matrix(which, h, spec, k)
            up = operator_matrix(which, spec, k)
            down = operator_matrix(which, spec, k - 1)
            down_adj = adjoint_matrix(
                down, gram_matrix(h.gram, k - 1), gram_matrix(h.gram, k)
            )
            stacked = [row[:] for row in up] + [row[:] for row in down_adj]
            dim = len(words_of_degree(N, k))
            ker_lap = linalg.nullspace(lap, cols=dim)
            ker_joint = linalg.nullspace(stacked, cols=dim)
            assert len(ker_lap) == len(ker_joint)
            assert row_space_equal(ker_lap or [], ker_joint or [])


def test_degree_reasons_kernel_on_p0_blocks(fls_4pi_metric, fls_4pi):
    # on invariant (p,0) blocks the dbar Laplacian kernel is the dbar kernel
    h, spec = fls_4pi_metric, fls_4pi
    blocks = laplacian_invariant("dbar", h, spec)
    for p in (1, 2, 3):
        words = words_of_degree(N, p)
        cols = [i for i, w in enumerate(words) if word_bidegree(w, N) == (p, 0)]
        dbar = operator_matrix("dbar", spec, p)
        sub = [[row[c] for c in cols] for row in dbar]
        ker = linalg.nullspace(sub, cols=len(cols))
        assert blocks[(p, 0)].dimension == len(ker)


def test_star_criterion_matches_gram_adjoint_kernel(fls_4pi_metric, fls_4pi):
    # psi in Ker(mu^*) iff mubar(star psi) = 0, block by block: validated,
    # not assumed
    h, spec = fls_4pi_metric, fls_4pi
    for k in range(1, 7):
        words = words_of_degree(N, k)
        mu_prev = operator_matrix_single("mu", spec, k - 1)
        mu_adj = adjoint_matrix(mu_prev, gram_matrix(h.gram, k - 1), gram_matrix(h.gram, k))
        crit_rows = []
        for w in words:
            image = spec.op_apply("mubar", hodge_star(h, Form.monomial(N, w)))
            crit_rows.append(image)
        out_words = sorted({ow for img in crit_rows for ow in img.coeffs})
        crit = [[img.coefficient(ow) for img in crit_rows] for ow in out_words]
        ker_adj = linalg.nullspace(mu_adj, cols=len(words))
        ker_crit = linalg.nullspace(crit, cols=len(words))
        assert len(ker_adj) == len(ker_crit)
        assert row_space_equal(ker_adj or [], ker_crit or [])


def operator_matrix_single(which, spec, k):
    src = words_of_degree(N, k)
    tgt = words_of_degree(N, k + 1)
    index = {w: i for i, w in enumerate(tgt)}
    mat = linalg.zeros(len(tgt), len(src))
    for col, w in enumerate(src):
        image = spec.op_apply(which, Form.monomial(N, w))
        for iw, c in image.coeffs.items():
            mat[index[iw]][col] = c
    return mat


def test_ak_identity_on_family_points():
    for overrides in ({"a": "1", "b": "0", "c": "1"}, {"a": "2", "b": "1", "c": "4*pi"}):
        spec = get_builtin("fls", overrides)
        h = metric_for(spec)
        assert check_ak_identity(h, spec)


def test_ak_identity_on_iwasawa(iwasawa_ak, iwasawa_ak_metric):
    assert check_ak_identity(iwasawa_ak_metric, iwasawa_ak)


def test_ak_identity_requires_closed_form(fls_nonak, fls_nonak_metric):
    with pytest.raises(NotAlmostKahler):
        check_ak_identity(fls_nonak_metric, fls_nonak)
    # the comparison itself is still reported, with no expected value
    assert isinstance(delta_laplacians_equal(fls_nonak_metric, fls_nonak), bool)


def _differing_blocks(a, b, spec, k):
    """Bidegree blocks (target, source) where two k-form matrices differ."""
    bidegrees = [word_bidegree(w, spec.n) for w in words_of_degree(spec.n, k)]
    return sorted(
        {
            (bidegrees[i], bidegrees[j])
            for i, (ra, rb) in enumerate(zip(a, b))
            for j, (x, y) in enumerate(zip(ra, rb))
            if not (x - y).is_zero()
        }
    )


def _check_conjugation(spec, h=None):
    """conj(L_deltabar) is the directly built L_delta on every block, and the
    flag, read from degrees 0..n, equals the all-degree comparison."""
    h = h or metric_for(spec)
    for k in range(2 * spec.n + 1):
        deltabar = laplacian_matrix("deltabar", h, spec, k)
        delta = delta_laplacian(h, spec, k)
        assert _differing_blocks(conjugated(deltabar, spec, k), delta, spec, k) == [], k
    assert delta_laplacians_equal(h, spec) == laplacians_equal_all_degrees(h, spec)


@pytest.mark.parametrize("name", builtin_names())
def test_conjugated_deltabar_laplacian_is_the_delta_laplacian(name):
    _check_conjugation(get_builtin(name))


NON_DIAGONAL_GRAMS = [
    [["2", "1", "0"], ["1", "2", "i"], ["0", "-i", "2"]],
    [["3", "pi", "1/2"], ["pi", "5", "i"], ["1/2", "-i", "pi"]],
]

# the rational Gram block on fls, fls_nonak and iwasawa_std, and the one
# carrying pi on iwasawa_std only (on fls it costs seconds of pi arithmetic)
NON_DIAGONAL_CASES = [
    ("fls", NON_DIAGONAL_GRAMS[0]),
    ("fls_nonak", NON_DIAGONAL_GRAMS[0]),
    ("iwasawa_std", NON_DIAGONAL_GRAMS[0]),
    ("iwasawa_std", NON_DIAGONAL_GRAMS[1]),
]
METRIC_CASES = [(name, None) for name in builtin_names()] + NON_DIAGONAL_CASES


def _metric_case(name, gram):
    spec = get_builtin(name)
    if gram is None:
        return spec, metric_for(spec)
    return spec, metric_from_gram([[S(x) for x in row] for row in gram], spec)


@pytest.mark.parametrize("name, gram", NON_DIAGONAL_CASES)
def test_the_flag_equals_the_all_degree_comparison_off_the_diagonal(name, gram):
    _check_conjugation(*_metric_case(name, gram))


@pytest.mark.parametrize("name, gram", METRIC_CASES)
def test_the_star_intertwines_the_two_laplacians(name, gram):
    # star L_deltabar(k) = L_delta(2n - k) star, the duality that lets the
    # flag stop at degree n
    spec, h = _metric_case(name, gram)
    n = spec.n
    for k in range(2 * n + 1):
        star = star_matrix(h, k)
        lhs = linalg.mat_mul(star, laplacian_matrix("deltabar", h, spec, k))
        rhs = linalg.mat_mul(delta_laplacian(h, spec, 2 * n - k), star)
        assert mat_eq(lhs, rhs), k


# a diagonal Gram block that is not a multiple of the identity
LDL_GRAMS = NON_DIAGONAL_GRAMS + [[["1", "0", "0"], ["0", "2", "0"], ["0", "0", "pi"]]]


@pytest.mark.parametrize("source", builtin_names() + LDL_GRAMS)
def test_the_gram_block_factors_as_l_d_l_h(source):
    if isinstance(source, str):
        check_ldl(metric_for(get_builtin(source)).gram)
    else:
        check_ldl(GramData(N, [[S(x) for x in row] for row in source]))


SCALINGS = ("2", "1/3", "pi")
# phi' = A phi: a triangular A, a permutation and one carrying pi
REBASES = [
    [["1", "0", "0"], ["2", "1", "0"], ["i", "-1", "3"]],
    [["0", "1", "0"], ["0", "0", "1"], ["1", "0", "0"]],
    [["1", "0", "pi"], ["0", "1", "0"], ["0", "0", "1"]],
]


@pytest.mark.parametrize("name, gram", METRIC_CASES)
def test_the_flag_is_kept_by_scaling_the_metric_and_changing_the_coframe(name, gram):
    # the flag is read in the coframe where H is diagonal, with D divided
    # by D_1; neither a constant factor nor the declared coframe may move it
    spec, h = _metric_case(name, gram)
    expected = laplacians_equal_all_degrees(h, spec)
    for factor in SCALINGS:
        c = S(factor)
        scaled = metric_from_gram([[c * x for x in row] for row in h.gram.hermitian_block], spec)
        assert delta_laplacians_equal(scaled, spec) == expected, factor
    for a in REBASES:
        rebased, h_rebased = rebase(spec, [[S(x) for x in row] for row in a], h)
        assert delta_laplacians_equal(h_rebased, rebased) == expected, a


def _evaluated(t, values, g_k=None):
    """The entries of T from its integer coefficients over the symbols."""
    grouped = {}
    for (a, b, x, y, w), c in t.items():
        grouped.setdefault((a, b), []).append((x, y, w, c))
    return {
        (a, b): hermitian.gram_entry(terms, values, {}, None if g_k is None else g_k[a] * g_k[b])
        for (a, b), terms in grouped.items()
    }


@pytest.mark.parametrize("name, gram", METRIC_CASES)
def test_the_gram_sums_are_g_times_the_dense_laplacian_in_the_orthogonal_coframe(name, gram):
    # in the coframe of H = L D L^H the metric is D / D_1, and the dense
    # oracle builds its Gram adjoints from compound matrices and inverses
    spec, h = _metric_case(name, gram)
    dgen, weights = hermitian._frame(h, spec)
    l, d = h.gram.ldl()
    n = spec.n
    # the flag reads the generator images of the spec rebased to L^-1 phi
    frame = rebase(spec, linalg.inverse(l), h)[0]
    assert dgen == [frame.d_generator(a) for a in range(1, 2 * n + 1)]
    diagonal = [[d[i] / d[0] if i == j else ZERO for j in range(n)] for i in range(n)]
    h_frame = metric_from_gram(diagonal, frame)
    g = None if weights is None else hermitian.word_weights(weights, n)
    images, values = hermitian.interned_images(dgen, n)
    # one symbol per coefficient up to sign
    assert len({x for x in values} | {-x for x in values}) == 2 * len(values)
    o_prev = []
    for k in range(n + 1):
        o = hermitian.deltabar_operator(images, n, k)
        # O_k, evaluated on its symbols, is the dbar + mu operator
        dense_o = linalg.zeros(len(words_of_degree(n, k + 1)), len(o))
        for a, col in enumerate(o):
            assert [m for m, _e in col] == sorted({m for m, _e in col})
            for m, entry in col:
                assert entry and all(c for _x, c in entry)
                dense_o[m][a] = sum((values[x] * Scalar.integer(c) for x, c in entry), ZERO)
        assert dense_o == operator_matrix("deltabar", frame, k), k
        t = hermitian.laplacian_gram(o_prev, o, None if g is None else g[k : k + 3])
        # the upper triangle only, of G L with G the oracle's Gram matrix
        assert all(a <= b for a, b, _x, _y, _w in t), k
        expected = linalg.mat_mul(
            gram_matrix(h_frame.gram, k), laplacian_matrix("deltabar", h_frame, frame, k)
        )
        evaluated = _evaluated(t, values, None if g is None else g[k + 1])
        assert {key: x for key, x in evaluated.items() if not x.is_zero()} == {
            (a, b): x
            for a, row in enumerate(expected)
            for b, x in enumerate(row)
            if a <= b and not x.is_zero()
        }, k
        o_prev = o


@pytest.mark.parametrize("name, gram", METRIC_CASES)
def test_the_flag_multiplies_and_inverts_no_matrix_and_builds_no_spec(name, gram, monkeypatch):
    # a metric proportional to the identity is read as declared, with
    # entrywise adjoints; off the diagonal, L^-1 rewrites the images d phi^a
    spec, h = _metric_case(name, gram)
    calls = []

    def spy(label, original):
        def counting(*args, **kwargs):
            calls.append(label)
            return original(*args, **kwargs)

        return counting

    monkeypatch.setattr(linalg, "mat_mul", spy("mat_mul", linalg.mat_mul))
    monkeypatch.setattr(linalg, "inverse", spy("inverse", linalg.inverse))
    monkeypatch.setattr(ManifoldSpec, "__init__", spy("spec", ManifoldSpec.__init__))
    delta_laplacians_equal(h, spec)
    assert calls == ([] if gram is None else ["inverse"])


def _fls_parameter(nonzero=False):
    """A random rational, times pi or not, as a scalar expression."""
    ratio = st.fractions(min_value=-5, max_value=5, max_denominator=5)
    if nonzero:
        ratio = ratio.filter(bool)
    return st.builds(lambda r, pi: f"({r})" + ("*pi" if pi else ""), ratio, st.booleans())


# a and c are nonzero on the family (the coframe is singular otherwise)
@settings(max_examples=12, deadline=None)
@given(a=_fls_parameter(nonzero=True), b=_fls_parameter(), c=_fls_parameter(nonzero=True))
def test_conjugated_deltabar_laplacian_on_fls_points(a, b, c):
    _check_conjugation(get_builtin("fls", {"a": a, "b": b, "c": c}))


def test_an_entry_without_its_mirror_clears_the_flag(fls, fls_metric, monkeypatch):
    # the sums built from real manifests are closed under conjugation; a
    # lone entry at degree 1 stands against the zero of its absent mirror,
    # entry (n, n + 1) for the words phi^1 and phi^2
    original = hermitian.laplacian_gram
    for value, expected in ((0, True), (1, False)):

        def lone(o_prev, o, g=None, value=value):
            t = original(o_prev, o, g)
            return {(0, 1, 0, 0, None): value} if len(o) == 2 * N else t

        monkeypatch.setattr(hermitian, "laplacian_gram", lone)
        hermitian._skeleton.cache_clear()  # the sums of the last value are kept
        assert delta_laplacians_equal(fls_metric, fls) is expected


def _spy_operators(monkeypatch):
    """Record each O_k built, as (k, O_k), and each (O_(k-1), O_k) summed."""
    built, summed = [], []
    build, gram = hermitian.deltabar_operator, hermitian.laplacian_gram

    def build_spy(images, n, k):
        built.append((k, build(images, n, k)))
        return built[-1][1]

    def gram_spy(o_prev, o, g=None):
        summed.append((o_prev, o))
        return gram(o_prev, o, g)

    monkeypatch.setattr(hermitian, "deltabar_operator", build_spy)
    monkeypatch.setattr(hermitian, "laplacian_gram", gram_spy)
    return built, summed


def test_a_report_never_builds_the_delta_laplacian(monkeypatch):
    built, summed = _spy_operators(monkeypatch)
    for name in builtin_names():
        built.clear()
        summed.clear()
        flags = compute_report(RunConfig(f"builtin:{name}")).flags
        # only dbar + mu, on degrees 0..n; a degree that differs ends the
        # comparison early
        last = N if flags["delta_laplacians_equal"] else built[-1][0]
        assert [k for k, _o in built] == list(range(last + 1)), name
        assert len(summed) == last + 1, name


def test_a_difference_at_degree_n_alone_clears_the_flag(fls, fls_metric, monkeypatch):
    # catches a loop that stops short of the middle degree: 1 more on
    # |v_0|^2 in T[0][0], the word phi^{123}, whose mirror is phi^{1b2b3b}
    original = hermitian.laplacian_gram

    def perturbed(o_prev, o, g=None):
        t = original(o_prev, o, g)
        if len(o) == len(words_of_degree(N, N)):
            t[0, 0, 0, 0, None] = t.get((0, 0, 0, 0, None), 0) + 1
        return t

    assert delta_laplacians_equal(fls_metric, fls)
    monkeypatch.setattr(hermitian, "laplacian_gram", perturbed)
    hermitian._skeleton.cache_clear()  # the unperturbed sums are kept
    assert not delta_laplacians_equal(fls_metric, fls)


@pytest.mark.parametrize("name", builtin_names())
def test_each_deltabar_operator_is_built_once_and_reused(name, monkeypatch):
    spec = get_builtin(name)
    h = metric_for(spec)
    built, summed = _spy_operators(monkeypatch)
    assert delta_laplacians_equal(h, spec) == laplacians_equal_all_degrees(h, spec)
    assert [k for k, _o in built] == list(range(len(built)))
    # degree k sums O_k and the very O_(k-1) built for degree k - 1; there
    # are no (-1)-forms
    operators = [o for _k, o in built]
    assert len(summed) == len(operators) and summed[0][0] == []
    for k, (o_prev, o) in enumerate(summed):
        assert o is operators[k] and (k == 0 or o_prev is operators[k - 1]), k


def _spy_certificate(monkeypatch):
    """Record, per flag, whether each degree's integer difference was empty,
    and count Scalar products and sums made after ``_frame``."""
    differences, arithmetic = [], []
    frame, difference = hermitian._frame, hermitian.mirror_difference

    def frame_spy(h, spec):
        out = frame(h, spec)
        arithmetic.append(0)
        return out

    def difference_spy(t, n, k):
        out = difference(t, n, k)
        differences.append(bool(out))
        return out

    def counted(name):
        original = getattr(Scalar, name)

        def count(self, other):
            if arithmetic:
                arithmetic[-1] += 1
            return original(self, other)

        monkeypatch.setattr(Scalar, name, count)

    monkeypatch.setattr(hermitian, "_frame", frame_spy)
    monkeypatch.setattr(hermitian, "mirror_difference", difference_spy)
    counted("__mul__")
    counted("__add__")
    return differences, arithmetic


@pytest.mark.parametrize("name", ["fls", "iwasawa_ak"])
def test_an_empty_integer_difference_certifies_the_flag_with_no_scalar_arithmetic(
    name, monkeypatch
):
    spec = get_builtin(name)
    h = metric_for(spec)
    differences, arithmetic = _spy_certificate(monkeypatch)
    assert delta_laplacians_equal(h, spec)
    assert differences == [False] * (N + 1)
    assert arithmetic == [0]


@pytest.mark.parametrize("name", ["fls", "iwasawa_ak"])
def test_a_true_flag_survives_the_exact_fallback(name, monkeypatch):
    # in a coframe that is not unitary, T and its mirror differ as integer
    # coefficients but agree once the symbols are evaluated
    declared = get_builtin(name)
    spec, h = rebase(declared, [[S(x) for x in row] for row in REBASES[0]], metric_for(declared))
    differences, _arithmetic = _spy_certificate(monkeypatch)
    assert delta_laplacians_equal(h, spec)
    assert any(differences) and len(differences) == N + 1


@pytest.mark.parametrize("name", ["fls_nonak", "iwasawa_std", "iwasawa_complex"])
def test_a_false_flag_is_decided_by_the_exact_fallback(name, monkeypatch):
    spec = get_builtin(name)
    h = metric_for(spec)
    differences, _arithmetic = _spy_certificate(monkeypatch)
    assert not delta_laplacians_equal(h, spec)
    # the degree that ends the comparison had a nonempty integer difference
    assert differences[-1] and not any(differences[:-1])


def _lower_triangular(draw, n):
    """A random rational lower triangular matrix with nonzero diagonal."""
    ratio = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    diagonal = ratio.filter(bool)
    return [
        [S(str(draw(diagonal) if i == j else draw(ratio) if j < i else 0)) for j in range(n)]
        for i in range(n)
    ]


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(builtin_names()), data=st.data())
def test_the_flag_is_the_oracle_in_random_triangular_coframes(name, data):
    # in phi' = A phi the Gram block A H A^H is not diagonal, and its
    # factor D carries the squared diagonal of A: the flag rebases and
    # reads weights that are not 1
    spec = get_builtin(name)
    rebased, h = rebase(spec, _lower_triangular(data.draw, N), metric_for(spec))
    assert delta_laplacians_equal(h, rebased) == laplacians_equal_all_degrees(h, rebased)


def _rebased_fls(point):
    """fls at ``point`` in the coframe REBASES[0] applied to phi: T and its
    mirror differ as integers there, with one pattern of images at every
    point and weights 1, 1, 9."""
    spec = get_builtin("fls", point)
    return rebase(spec, [[S(x) for x in row] for row in REBASES[0]], metric_for(spec))


def test_a_kept_pattern_builds_no_operator_and_evaluates_the_new_point(monkeypatch):
    first = _rebased_fls({})
    second = _rebased_fls({"a": "2", "b": "1", "c": "4*pi"})
    built, _summed = _spy_operators(monkeypatch)
    evaluated, entry = [], hermitian.gram_entry

    def entry_spy(terms, values, products, g_ab=None):
        evaluated.append(values)
        return entry(terms, values, products, g_ab)

    monkeypatch.setattr(hermitian, "gram_entry", entry_spy)
    assert delta_laplacians_equal(first[1], first[0])
    assert [k for k, _o in built] == list(range(N + 1)) and evaluated
    built.clear()
    evaluated.clear()
    assert delta_laplacians_equal(second[1], second[0])
    assert built == [] and hermitian._skeleton.cache_info().hits == 1
    values = hermitian.interned_images(hermitian._frame(second[1], second[0])[0], N)[1]
    first_values = hermitian.interned_images(hermitian._frame(first[1], first[0])[0], N)[1]
    assert evaluated and all(v == values for v in evaluated) and values != first_values


def test_threads_sharing_a_key_keep_its_degrees_in_order(monkeypatch):
    # more threads than cores, released together and switching often, from
    # a cold memo: a degree appended twice, or built from the wrong
    # O_(k-1), is a lost update.  Two threads missing the memo at once may
    # each build a skeleton; every one must hold the single-thread degrees
    cases = [_rebased_fls({}), _rebased_fls({"a": "2", "b": "1", "c": "4*pi"})]
    kept, lookup = [], hermitian._skeleton

    def lookup_spy(*key):
        kept.append(lookup(*key))
        return kept[-1]

    monkeypatch.setattr(hermitian, "_skeleton", lookup_spy)
    assert delta_laplacians_equal(cases[0][1], cases[0][0])
    expected = kept[0].degrees
    assert len(expected) == N + 1
    workers = min((os.cpu_count() or 1) + 1, 8)
    start, verdicts = threading.Barrier(workers), []

    def work(spec, h):
        start.wait(timeout=60)
        verdicts.append(delta_laplacians_equal(h, spec))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _round in range(10):
            lookup.cache_clear()
            kept.clear()
            verdicts.clear()
            threads = [threading.Thread(target=work, args=cases[i % 2]) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert verdicts == [True] * workers and len(kept) == workers
            assert all(skeleton.degrees == expected for skeleton in kept)
    finally:
        sys.setswitchinterval(interval)


@lru_cache(maxsize=None)
def _sweep_cases():
    """Each of METRIC_CASES, as declared and in each coframe of REBASES, with
    the all-degree verdict of the declared case (the flag is kept by a
    change of coframe)."""
    cases = []
    for name, gram in METRIC_CASES:
        spec, h = _metric_case(name, gram)
        expected = laplacians_equal_all_degrees(h, spec)
        cases.append((spec, h, expected))
        for a in REBASES:
            cases.append((*rebase(spec, [[S(x) for x in row] for row in a], h), expected))
    return cases


# each example sweeps every fixed case twice: two pi-bearing rebases cost
# about 0.2 s each per sweep, in exact arithmetic a warm memo does not skip
@settings(max_examples=2, deadline=None)
@given(
    points=st.lists(
        st.fixed_dictionaries(
            {"a": _fls_parameter(True), "b": _fls_parameter(), "c": _fls_parameter(True)}
        ),
        min_size=2,
        max_size=3,
    )
)
def test_a_warm_memo_gives_the_oracle_in_either_order(points):
    # the memo stays warm across examples; a kept skeleton may be extended
    # by a later point whose verdict reaches further degrees
    cases = list(_sweep_cases())
    for point in points:
        spec = get_builtin("fls", point)
        h = metric_for(spec)
        cases.append((spec, h, laplacians_equal_all_degrees(h, spec)))
        cases.append((*_rebased_fls(point), cases[-1][2]))
    for order in (cases, cases[::-1]):
        for spec, h, expected in order:
            assert delta_laplacians_equal(h, spec) == expected, spec.name


@pytest.mark.parametrize("unit_first", [True, False])
def test_weights_that_are_not_one_never_share_a_kept_pattern(unit_first):
    # diag(1, 2, 3) keeps the declared images of fls, so only the weights
    # tell its key from that of the declared metric; the verdicts differ
    spec = get_builtin("fls")
    diagonal = [[S(str(i + 1) if i == j else "0") for j in range(N)] for i in range(N)]
    metrics = [(metric_for(spec), True), (metric_from_gram(diagonal, spec), False)]
    for h, expected in metrics if unit_first else metrics[::-1]:
        assert laplacians_equal_all_degrees(h, spec) is expected
        assert delta_laplacians_equal(h, spec) is expected
    assert hermitian._skeleton.cache_info().currsize == 2


def test_the_memo_keeps_a_fixed_number_of_patterns():
    bound = hermitian.SKELETONS
    assert type(bound) is int and hermitian._skeleton.cache_info().maxsize == bound
    # iwasawa_ak under diag(1, 1, j): one pattern, bound + 1 distinct weights
    spec = get_builtin("iwasawa_ak")
    for j in range(2, bound + 3):
        gram = [[S(str(j) if i == k == 2 else "1" if i == k else "0") for k in range(N)] for i in range(N)]
        assert delta_laplacians_equal(metric_from_gram(gram, spec), spec)
    info = hermitian._skeleton.cache_info()
    assert info.currsize == bound and info.misses == bound + 1 and info.hits == 0


def test_full_d_laplacian_on_functions(iwasawa_ak, iwasawa_ak_metric):
    blocks = laplacian_invariant("d", iwasawa_ak_metric, iwasawa_ak)
    assert blocks[(0, 0)].dimension == 1
    delta_blocks = laplacian_invariant("delta", iwasawa_ak_metric, iwasawa_ak)
    assert delta_blocks[(0, 0)].dimension == 1


def test_reported_kernel_bases_are_killed_by_the_laplacian(fls_4pi, fls_4pi_metric):
    h, spec = fls_4pi_metric, fls_4pi
    for which in ("dbar", "deltabar", "delta", "d"):
        blocks = laplacian_invariant(which, h, spec)
        for (p, q), block in blocks.items():
            assert block.dimension == len(block.basis)
            lap = laplacian_matrix(which, h, spec, p + q)
            words = words_of_degree(N, p + q)
            for basis_form in block.basis:
                vec = [basis_form.coefficient(w) for w in words]
                assert all(x.is_zero() for x in mat_vec(lap, vec))


def test_non_diagonal_hermitian_gram(iwasawa_std):
    two = Scalar.integer(2)
    h_matrix = [
        [two, I, ZERO],
        [-I, two, ZERO],
        [ZERO, ZERO, ONE],
    ]
    h = metric_from_gram(h_matrix, iwasawa_std)
    assert mat_eq(h.gram.hermitian_block, h_matrix)
    # parity and the defining relation survive off-diagonal Gram data
    for k in range(7):
        for w in words_of_degree(N, k):
            alpha = Form.monomial(N, w)
            twice = hodge_star(h, hodge_star(h, alpha))
            assert twice == (alpha if k % 2 == 0 else -alpha)
    vol = volume(h)
    assert inner_product(h.gram, vol, vol) == ONE
    for w1 in words_of_degree(N, 1):
        for w2 in words_of_degree(N, 1):
            a, b = Form.monomial(N, w1), Form.monomial(N, w2)
            lhs = a.wedge(hodge_star(h, b.conj()))
            rhs = vol.scale(inner_product(h.gram, a, b))
            assert lhs == rhs


def test_star_commutes_with_conjugation(fls_metric):
    h = fls_metric
    for k in range(7):
        for w in words_of_degree(N, k):
            alpha = Form.monomial(N, w, Scalar.rational(2, 3))
            assert hodge_star(h, alpha.conj()) == hodge_star(h, alpha).conj()


def test_metric_required_for_run():
    text = """
[manifold]
name = bare
dim = 6

[complex_coframe]
d phi1 = 0
d phi2 = 0
d phi3 = 0
"""
    spec = load_spec(text)
    with pytest.raises(ValueError):
        metric_for(spec)


def _report_summary(config):
    data = report_to_dict(compute_report(config))
    return data["tables"], data["flags"], data["obstruction"]["verdict"]


@pytest.mark.parametrize("a", ["-1", "-2*pi"])
def test_negative_a_reverses_the_orientation_and_keeps_the_report(a):
    # a < 0 reverses the orientation of omega^3 against e^1...e^6, which no
    # computed space depends on; at a = -2*pi the metric carries pi
    assert _report_summary(RunConfig("builtin:fls", {"a": a})) == _report_summary(
        RunConfig("builtin:fls", {"a": "1"})
    )


def _scaled_metric(text, factor):
    """The manifest with its declared omega, or each gram entry, times factor."""
    text = re.sub(
        r"^omega = (.*)$", lambda m: f"omega = ({factor})*({m[1]})", text, flags=re.M
    )
    return re.sub(
        r"^gram = .*$",
        lambda m: re.sub(r"-?\d+", lambda k: f"({factor})*{k[0]}", m[0]),
        text,
        flags=re.M,
    )


@pytest.mark.parametrize("name", builtin_names())
def test_scaling_the_metric_keeps_the_tables(name, tmp_path):
    # a pi factor puts pi into every principal minor that positivity certifies
    text = BUILTINS[name]
    block = metric_for(load_spec(text)).gram.hermitian_block
    tables = report_to_dict(compute_report(RunConfig(f"builtin:{name}")))["tables"]
    for factor in ("3/7", "pi"):
        path = tmp_path / f"{name}.am"
        path.write_text(_scaled_metric(text, factor))
        assert metric_for(load_spec(path.read_text())).gram.hermitian_block != block
        scaled = report_to_dict(compute_report(RunConfig(str(path))))["tables"]
        assert scaled == tables


BLOCK_METRICS = builtin_names() + NON_DIAGONAL_GRAMS


@pytest.mark.parametrize("source", BLOCK_METRICS)
def test_gram_blocks_match_the_full_gram_matrix(source):
    if isinstance(source, str):
        gram = metric_for(get_builtin(source)).gram
    else:
        h = [[S(x) for x in row] for row in source]
        gram = GramData(N, h)
    n = gram.n
    for k in range(2 * n + 1):
        full = gram_matrix(gram, k)
        index = {w: i for i, w in enumerate(words_of_degree(n, k))}
        for p, q in bidegrees(n, k):
            words = block_words(n, p, q)
            block = gram_block(gram, p, q)
            assert mat_eq(block, [[full[index[a]][index[b]] for b in words] for a in words])
            conj = [[x.conj() for x in row] for row in block]
            product = linalg.mat_mul(conj, conj_block_inverse(gram, p, q))
            assert mat_eq(product, linalg.identity(len(words))), (source, p, q)


@pytest.mark.parametrize("name, gram", METRIC_CASES)
def test_a_metric_takes_one_inverse(name, gram, monkeypatch):
    spec = get_builtin(name)
    h = [[S(x) for x in row] for row in gram] if gram is not None else None
    calls = []
    original = linalg.inverse

    def counting(m):
        calls.append(len(m))
        return original(m)

    monkeypatch.setattr(linalg, "inverse", counting)
    metric_for(spec) if h is None else metric_from_gram(h, spec)
    # the map between W and H
    assert calls == [spec.n]


@pytest.mark.parametrize("name", builtin_names())
def test_a_report_inverts_nothing_larger_than_the_coframe(name, monkeypatch):
    sizes = []
    original = linalg.inverse

    def spy(m):
        sizes.append(len(m))
        return original(m)

    monkeypatch.setattr(linalg, "inverse", spy)
    spec = compute_report(RunConfig(f"builtin:{name}")).spec
    assert sizes and max(sizes) <= 2 * spec.n
