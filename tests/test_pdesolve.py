from ahodge.pdesolve import (
    Equation,
    PDESystem,
    RULES,
    Status,
    apply_rule,
    build_dbar_system,
    reduce,
)
from ahodge.fourier import mode_matrix
from ahodge.scalars import ONE
from util import S, recheck_promotion


def _find_equation(system, frame, unknown):
    """The equation whose derivative term is Vbar_frame(unknown)."""
    hits = [eq for eq in system.equations if eq.frame == frame and eq.unknown == unknown]
    assert len(hits) == 1, (frame, unknown, hits)
    return hits[0]


def _zero_coeffs(eq, normalize_by):
    inv = normalize_by.inv()
    return {u: c * inv for u, c in eq.zeros}


def test_top_degree_system_is_pure(fls):
    sys = build_dbar_system(3, fls)
    assert sys.unknowns == [(1, 2, 3)]
    assert len(sys.equations) == 3
    for eq in sys.equations:
        assert eq.unknown == (1, 2, 3) and eq.coeff == -ONE and not eq.zeros
    frames = sorted(eq.frame for eq in sys.equations)
    assert frames == [1, 2, 3]


def test_degree_out_of_range_rejected(fls):
    import pytest

    for bad in (-1, 4):
        with pytest.raises(ValueError):
            build_dbar_system(bad, fls)


def test_degree_zero_system(fls):
    sys = build_dbar_system(0, fls)
    assert sys.unknowns == [()]
    assert len(sys.equations) == 3
    assert all(not eq.zeros for eq in sys.equations)


def test_family_one_form_system(fls):
    # unknowns f{1}, f{2}, f{3} are the A, B, D coefficients
    sys = build_dbar_system(1, fls)
    A, B, D = (1,), (2,), (3,)
    assert sys.unknowns == [A, B, D]
    assert len(sys.equations) == 9
    eq = _find_equation(sys, 1, B)
    assert _zero_coeffs(eq, eq.coeff) == {D: S("-c/4", fls)}
    eq = _find_equation(sys, 1, D)
    assert _zero_coeffs(eq, eq.coeff) == {B: S("-c/4", fls)}
    eq = _find_equation(sys, 2, A)
    assert _zero_coeffs(eq, eq.coeff) == {
        B: S("1/(2*a)", fls),
        D: S("c/4", fls),
    }
    for frame, unknown in ((1, A), (2, B), (3, B), (2, D), (3, D)):
        eq = _find_equation(sys, frame, unknown)
        assert not eq.zeros


def test_family_two_form_system(fls):
    sys = build_dbar_system(2, fls)
    A, B, D = (1, 2), (1, 3), (2, 3)
    assert sys.unknowns == [A, B, D]
    eq = _find_equation(sys, 1, A)
    assert _zero_coeffs(eq, eq.coeff) == {B: S("-c/4", fls)}
    eq = _find_equation(sys, 1, B)
    assert _zero_coeffs(eq, eq.coeff) == {A: S("-c/4", fls)}
    eq = _find_equation(sys, 3, A)
    assert _zero_coeffs(eq, eq.coeff) == {D: S("1/(2*a)", fls)}
    for frame in (1, 2, 3):
        eq = _find_equation(sys, frame, D)
        assert not eq.zeros


def test_iwasawa_one_form_system(iwasawa_ak):
    sys = build_dbar_system(1, iwasawa_ak)
    A, B, C = (1,), (2,), (3,)
    eq = _find_equation(sys, 3, A)
    # -Vbar_3(A) + (1/4)A - (i/4)B = 0 up to overall sign
    assert _zero_coeffs(eq, eq.coeff) == {
        A: S("-1/4"),
        B: S("i/4"),
    }
    eq = _find_equation(sys, 1, C)
    assert _zero_coeffs(eq, eq.coeff) == {A: S("-1/4"), B: S("-i/4")}


def test_reduction_statuses_match_expected_classifications(
    fls, fls_nonak, iwasawa_ak
):
    expectations = [
        (fls, 1, {(1,): Status.CONSTANT, (2,): Status.BASE_ONLY, (3,): Status.BASE_ONLY}),
        (fls, 2, {(1, 2): Status.BASE_ONLY, (1, 3): Status.BASE_ONLY, (2, 3): Status.CONSTANT}),
        (fls, 3, {(1, 2, 3): Status.CONSTANT}),
        (fls_nonak, 1, {(1,): Status.CONSTANT, (2,): Status.CONSTANT, (3,): Status.CONSTANT}),
        (fls_nonak, 2, {(1, 2): Status.CONSTANT, (1, 3): Status.CONSTANT, (2, 3): Status.CONSTANT}),
        (iwasawa_ak, 1, {(1,): Status.BASE_ONLY, (2,): Status.BASE_ONLY, (3,): Status.CONSTANT}),
        (iwasawa_ak, 2, {(1, 2): Status.CONSTANT, (1, 3): Status.BASE_ONLY, (2, 3): Status.BASE_ONLY}),
    ]
    for spec, p, expected in expectations:
        rs = reduce(build_dbar_system(p, spec), spec)
        assert rs.statuses == expected, (spec.name, p)


def _one_pass(sys, spec):
    for rule in RULES:
        apply_rule(sys, rule, spec)
    return sys


def test_nonak_constancy_order(fls_nonak):
    # f{2} (the coefficient of Phi^2) is promoted straight to constant from
    # its three pure equations, before anything else resolves
    once = _one_pass(build_dbar_system(1, fls_nonak), fls_nonak)
    assert once.statuses[(2,)] == Status.CONSTANT


def test_family_reduction_residual(fls):
    rs = reduce(build_dbar_system(1, fls), fls)
    assert not rs.has_free
    rows = mode_matrix(rs, fls).rows
    assert len(rows) == 4
    # the four residual equations: two algebraic, two first order along V1,
    # whose linear part in the mode is a multiple of the V1 symbol
    units = [(1, 0), (0, 1)]
    with_sym = [r for r in rows if any(any(e) for poly in r.values() for e in poly)]
    assert len(with_sym) == 2
    for row in with_sym:
        for poly in row.values():
            lin = [poly.get(e) for e in units]
            if any(lin):
                ratio = lin[0] / fls.fibration.symbols[1][0]
                assert lin == [ratio * s for s in fls.fibration.symbols[1]]


def test_reduce_is_idempotent(fls, fls_nonak, iwasawa_ak):
    for spec in (fls, fls_nonak, iwasawa_ak):
        for p in (1, 2, 3):
            sys = build_dbar_system(p, spec)
            first = reduce(sys, spec)
            # reduce leaves its argument as it was
            assert set(sys.statuses.values()) == {Status.FREE} and not sys.promotions
            second = reduce(first, spec)
            assert first.statuses == second.statuses
            assert first.promotions == second.promotions
            assert mode_matrix(first, spec) == mode_matrix(second, spec)


def test_promotions_carry_recheckable_certificates(fls, fls_nonak, iwasawa_ak):
    for spec in (fls, fls_nonak, iwasawa_ak):
        for p in (1, 2, 3):
            rs = reduce(build_dbar_system(p, spec), spec)
            assert rs.promotions, (spec.name, p)
            for promo in rs.promotions:
                assert recheck_promotion(rs, promo, spec), (spec.name, p, promo)


def test_fiber_rule_needs_annihilated_remainder(fls):
    # a coupled pair along a fiber direction with free remainders never tightens
    u1, u2 = (1,), (2,)
    eqs = [
        Equation((9,), 2, u1, ONE, ((u2, ONE),)),
        Equation((10,), 2, u2, ONE, ((u1, ONE),)),
    ]
    for rule in RULES:
        sys = PDESystem([u1, u2], eqs, {u1: Status.FREE, u2: Status.FREE})
        apply_rule(sys, rule, fls)
        assert sys.statuses == {u1: Status.FREE, u2: Status.FREE}
        assert not sys.promotions
    rs = reduce(sys, fls)
    assert rs.has_free


def test_fiber_rule_accepts_constant_remainder(fls):
    u1, u2 = (1,), (2,)
    eqs = [
        Equation((9,), 2, u1, ONE, ((u2, ONE),)),
        Equation((10,), 3, u1, ONE, ()),
    ]
    sys = PDESystem([u1, u2], eqs, {u1: Status.FREE, u2: Status.CONSTANT})
    apply_rule(sys, "fiber_maximum_principle", fls)
    assert sys.statuses[u1] == Status.BASE_ONLY


def test_status_lattice_only_tightens(fls):
    for p in (1, 2):
        sys = build_dbar_system(p, fls)
        seen = {u: [sys.statuses[u]] for u in sys.unknowns}
        for _ in range(4):
            _one_pass(sys, fls)
            for u in sys.unknowns:
                seen[u].append(sys.statuses[u])
        for u, history in seen.items():
            assert all(b >= a for a, b in zip(history, history[1:]))
