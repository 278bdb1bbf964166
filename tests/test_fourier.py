import importlib.util
import random
import sys
from fractions import Fraction
from itertools import product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahodge import fourier, linalg
from ahodge.algebra import Form
from ahodge.builtins import BUILTINS, builtin_names, get_builtin
from ahodge.cli import RunConfig, _load_source, compute_report
from ahodge.fourier import (
    EXACT,
    ModeForm,
    UNDETERMINED,
    UndeterminedUnknowns,
    _integer_roots,
    _poly_det,
    _poly_eval,
    _poly_mul,
    _resultant,
    _solve_integer_system,
    contributing_modes,
    d_mode,
    dbar_mode,
    dolbeault_basis,
    harmonic_basis_dbar,
    harmonic_basis_deltabar,
    mode_matrix,
)
from ahodge.hermitian import metric_for, metric_from_gram
from ahodge.manifold import load_spec
from ahodge.pdesolve import (
    Equation,
    PDESystem,
    Status,
    build_dbar_system,
    reduce,
)
from ahodge.scalars import ONE, Scalar
from util import (
    S,
    all_minors_modes,
    basis_independent,
    exhaustive_mode_scan,
    form,
    invariant,
    laplacian_invariant,
    mubar_mode,
    rank12_integer_system,
    span_rank,
    spans_equal,
    star_criterion_filter,
    star_mode,
    times_torus2,
    word,
)


def _reduced(spec, p):
    return reduce(build_dbar_system(p, spec), spec)


def _mode_matrix(spec, p):
    return mode_matrix(_reduced(spec, p), spec)


# -- mode matrices ------------------------------------------------------


def test_mode_matrix_shape_fls_two_forms(fls):
    m = _mode_matrix(fls, 2)
    assert m.base_cols == [(1, 2), (1, 3)]
    assert m.const_cols == [(2, 3)]
    assert len(m.rows) == 6


def test_mode_matrix_row_matches_scaled_first_order_equation(fls_4pi):
    # the row coupling f{12} and f{13} along Vbar_1 has the same vanishing
    # locus as (1/a 2 pi i mu/a0 - 2 pi lambda) A - (c/2) B = 0 (a scaled form)
    m = _mode_matrix(fls_4pi, 2)
    A, B = (1, 2), (1, 3)
    # the row with a symbol entry on A and a constant entry on B
    row = None
    for r in m.rows:
        if (
            A in r
            and B in r
            and any(any(e) for e in r[A])
            and not any(any(e) for e in r[B])
        ):
            row = r
            break
    assert row is not None
    for mode in [(1, 0), (0, 1), (2, -3), (5, 7)]:
        lam, mu = mode
        ours_a = _poly_eval(row[A], mode)
        ours_b = _poly_eval(row[B], mode)
        scaled_a = S(f"2*pi*i*({mu}) - 2*pi*({lam})", fls_4pi)
        scaled_b = S("-c/2", fls_4pi)
        assert (ours_a * scaled_b - ours_b * scaled_a).is_zero(), mode


def test_mode_matrix_zero_mode_is_invariant_system(fls):
    # base symbols vanish at the zero mode, leaving the invariant-form system
    m = _mode_matrix(fls, 2)
    mat0 = m.eval((0, 0))
    ker = linalg.nullspace(mat0, cols=len(m.base_cols) + len(m.const_cols))
    assert ker == []  # invariant (2,0) kernel is trivial for this family


def test_iwasawa_minor_has_expected_linear_factor(iwasawa_ak):
    # the 2x2 minor from the rows labelled phi^{1 3bar} and phi^{3 1bar}
    # vanishes exactly on the locus of (-pi i lambda + pi mu + 1/2)
    m = _mode_matrix(iwasawa_ak, 1)
    A, B = (1,), (2,)
    by_monomial = dict(zip(m.row_monomials, m.rows))
    r1 = by_monomial[word(3, "1", "3b")]
    r2 = by_monomial[word(3, "3", "1b")]

    def minor(mode):
        (a1, b1), (a2, b2) = ([_poly_eval(r[u], mode) for u in (A, B)] for r in (r1, r2))
        return a1 * b2 - b1 * a2

    def factor(mode):
        lam, mu = mode
        return S(f"-pi*i*({lam}) + pi*({mu}) + 1/2")

    base_mode = (1, 1)
    ratio = minor(base_mode) / factor(base_mode)
    assert not ratio.is_zero()
    for mode in [(0, 1), (1, 0), (-2, 3), (4, -5)]:
        assert minor(mode) == ratio * factor(mode)


def test_mode_matrix_columns_are_dbar_of_one_mode():
    # oracle: column u of the matrix at mode m holds the coefficients of
    # dbar(e^{2 pi i <m, x>} phi^u), expanded directly by dbar_mode
    columns = 0
    for name in builtin_names():
        spec = get_builtin(name)
        n = spec.n
        for p in range(n + 1):
            reduced = _reduced(spec, p)
            if reduced.has_free:
                continue
            matrix = mode_matrix(reduced, spec)
            for m in product(range(-2, 3), repeat=matrix.rank):
                evaluated = matrix.eval(m)
                for k, u in enumerate(matrix.columns(m)):
                    image = dbar_mode(ModeForm(n, matrix.rank, {m: Form.monomial(n, u)}), spec)
                    assert set(image.modes) <= {m}
                    form = image.modes.get(m, Form.zero(n))
                    assert set(form.coeffs) <= set(matrix.row_monomials), (name, p, m, u)
                    expected = [form.coefficient(w) for w in matrix.row_monomials]
                    assert [row[k] for row in evaluated] == expected, (name, p, m, u)
                    columns += 1
    assert columns == 232


def test_mode_matrix_requires_resolved_unknowns(fls):
    u1, u2 = (1,), (2,)
    eqs = [
        Equation((9,), 2, u1, ONE, ((u2, ONE),)),
        Equation((10,), 2, u2, ONE, ((u1, ONE),)),
    ]
    sys = PDESystem([u1, u2], eqs, {u1: Status.FREE, u2: Status.FREE})
    rs = reduce(sys, fls)
    with pytest.raises(UndeterminedUnknowns):
        mode_matrix(rs, fls)


# -- contributing modes -------------------------------------------------


def test_contributing_modes_family_branch_cases():
    spec = get_builtin("fls", {"c": "4*pi"})
    assert contributing_modes(_mode_matrix(spec, 2)) == [(-1, 0), (1, 0)]
    spec = get_builtin("fls", {"c": "2*pi"})
    m = _mode_matrix(spec, 2)
    assert contributing_modes(m) == []
    assert linalg.nullspace(m.eval((0, 0)), cols=3) == []
    spec = get_builtin("fls", {"c": "8*pi"})
    assert contributing_modes(_mode_matrix(spec, 2)) == [(-2, 0), (2, 0)]


def test_contributing_modes_corner_case():
    spec = get_builtin("fls", {"a": "2", "b": "0", "c": "-1"})
    m = _mode_matrix(spec, 1)
    assert contributing_modes(m) == []
    ker = linalg.nullspace(m.eval((0, 0)), cols=len(m.base_cols) + len(m.const_cols))
    assert len(ker) == 1
    cols = m.base_cols + m.const_cols
    nonzero = [u for u, c in zip(cols, ker[0]) if not c.is_zero()]
    assert nonzero == [(1,)]


def test_mode_loci_insensitive_to_lattice_period():
    # the imaginary part of the symbol pins the second mode coordinate to
    # zero for every nonzero rational period, so the tables cannot move
    for a0 in ("1", "3/2", "5"):
        spec = get_builtin("fls", {"c": "4*pi", "a0": a0})
        dims = tuple(harmonic_basis_dbar(p, spec).dimension for p in (1, 2, 3))
        assert dims == (1, 2, 1), a0
    spec = get_builtin("fls", {"c": "-8*pi", "a0": "7/3"})
    assert contributing_modes(_mode_matrix(spec, 2)) == [(-2, 0), (2, 0)]


def test_contributing_modes_respects_cap():
    spec = get_builtin("fls", {"c": "4*pi"})
    assert contributing_modes(_mode_matrix(spec, 2), cap=0) is None


ROOT = Path(__file__).resolve().parents[1]


def _benchmark_cases(seeds, monkeypatch):
    """The distinct (source, params) of every benchmark workload over
    ``seeds``, from the benchmark's own case generators; the module is
    registered for the calling test only."""
    path = ROOT / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    monkeypatch.setitem(sys.modules, module_spec.name, workloads)  # its dataclasses look it up
    module_spec.loader.exec_module(workloads)
    cases = {}
    for make in workloads.WORKLOADS.values():
        for seed in seeds:
            for case in make(seed):
                cases[case.source, tuple(sorted(case.params.items()))] = None
    return list(cases)


def test_the_mode_search_ends_early_only_where_all_minors_agree(monkeypatch):
    # every built-in, every manifest and every distinct benchmark case of
    # seeds 1-3, at every degree with a mode matrix; a cap of 0 bits makes
    # every search that reaches root isolation undetermined
    sources = [(f"builtin:{name}", ()) for name in builtin_names()]
    sources += [(str(path), ()) for path in sorted((ROOT / "manifests").glob("*.am"))]
    sources += _benchmark_cases((1, 2, 3), monkeypatch)
    outcomes = set()
    for source, params in sources:
        spec = _load_source(source if ":" in source else str(ROOT / source), dict(params))
        for p in range(spec.n + 1):
            reduced = _reduced(spec, p)
            if reduced.has_free:
                continue
            matrix = mode_matrix(reduced, spec)
            for cap in (fourier.MODES_BOUND, 0):
                modes = contributing_modes(matrix, cap)
                assert modes == all_minors_modes(matrix, cap), (source, params, p, cap)
                outcomes.add("none" if modes is None else "modes" if modes else "empty")
    assert outcomes == {"none", "modes", "empty"}


def test_a_constant_minor_ends_the_mode_search(monkeypatch):
    # on fls at p = 1 the first maximal minor is a nonzero constant, so no
    # other minor is formed and no condition is split
    matrix = _mode_matrix(get_builtin("fls"), 1)
    ncols = len(matrix.base_cols)
    formed, split = [], []
    original_det = fourier._poly_det

    def det_spy(rows):
        if len(rows) == ncols:
            formed.append(original_det(rows))
            return formed[-1]
        return original_det(rows)

    monkeypatch.setattr(fourier, "_poly_det", det_spy)
    monkeypatch.setattr(fourier, "_split_constraints", lambda polys: split.append(polys))
    assert contributing_modes(matrix) == []
    assert len(formed) == 1 and list(formed[0]) == [(0,) * matrix.rank]
    assert split == []


def test_exhaustive_scan_agrees_on_small_window():
    spec = get_builtin("fls", {"c": "4*pi"})
    m = _mode_matrix(spec, 2)
    assert exhaustive_mode_scan(m, 4) == contributing_modes(m)


# -- the integer solver --------------------------------------------------


def test_poly_det_matches_gaussian_elimination():
    # Laplace expansion against linalg.det on Scalar matrices over Q(pi),
    # taken as constant polynomials in a rank-2 mode vector
    rng = random.Random(7)
    for size in (1, 2, 3, 4):
        matrix = [
            [
                Scalar.integer(rng.randint(-2, 2)) + Scalar.pi_power(1, rng.randint(-1, 1))
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        polys = [[{(0, 0): c} if c else {} for c in row] for row in matrix]
        det = linalg.det(matrix)
        assert _poly_det(polys) == ({(0, 0): det} if det else {})


def test_resultant_eliminates_the_shared_root():
    # x^2 - y and x - 2 share a root in x exactly when y = 4
    res = _resultant({(2, 0): 1, (0, 1): -1}, {(1, 0): 1, (0, 0): -2}, 0)
    assert set(res) == {(0, 0), (0, 1)}
    assert Fraction(res[(0, 1)], res[(0, 0)]) == Fraction(-1, 4)


def test_integer_system_solver_two_variables():
    # lambda*mu = 0 and lambda^2 - mu^2 - 1 = 0 force (+-1, 0)
    system = [
        {(1, 1): 1},
        {(2, 0): 1, (0, 2): -1, (0, 0): -1},
    ]
    assert _solve_integer_system(system, (0, 1), 10**6) == [(-1, 0), (1, 0)]


def test_integer_system_solver_edge_cases():
    assert _solve_integer_system([], (0, 1), 10**6) is None
    assert _solve_integer_system([{(0, 0): 1}], (0, 1), 10**6) == []
    # a single curve with infinitely many integer points stays undetermined
    assert _solve_integer_system([{(1, 1): 1}], (0, 1), 10**6) is None
    assert _solve_integer_system([{(1,): 2, (0,): -4}], (0,), 10**6) == [(2,)]
    assert _solve_integer_system([{(2,): 1, (0,): 2}], (0,), 10**6) == []


def test_integer_system_cap_triggers_undetermined():
    # the cap bounds the bit length of the root bound: x - 2^11 has the
    # Cauchy bound 2^11 + 1, of 12 bits
    system = [{(1,): 1, (0,): -(2**11)}]
    assert _solve_integer_system(system, (0,), 10) is None
    assert _solve_integer_system(system, (0,), 12) == [(2048,)]


def _system(rank):
    """One to three integer polynomials in ``rank`` mode coordinates, of
    degree at most 2 in each, with small coefficients."""
    exponent = st.tuples(*[st.integers(0, 2)] * rank)
    coeff = st.one_of(st.integers(-6, 6), st.integers(-60, 60)).filter(bool)
    return st.lists(st.dictionaries(exponent, coeff, min_size=1, max_size=4), min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1, 2]).flatmap(lambda rank: st.tuples(st.just(rank), _system(rank))),
    st.sampled_from([0, 1, 2, 4, 256]),
)
def test_the_integer_solver_is_never_narrower_than_the_rank12_reference(case, cap):
    # where the rank-1/2 solver certified an answer, the recursion gives
    # the same one; it may certify more, never less
    rank, system = case
    expected = rank12_integer_system(system, rank, cap)
    if expected is not None:
        assert _solve_integer_system(system, tuple(range(rank)), cap) == expected


def _vanishes(poly, m) -> bool:
    return sum(c * prod(mk**k for mk, k in zip(m, e)) for e, c in poly.items()) == 0


@st.composite
def _systems_around_points(draw):
    """(rank, coordinates held alone, conditions): each condition is a
    product of one linear form through each of a few known integer points,
    and each held coordinate gets a condition in it alone whose roots are
    the points' values there, times a rootless factor."""
    rank = draw(st.integers(1, 3))
    box = st.tuples(*[st.integers(-3, 3)] * rank)
    points = draw(st.lists(box, min_size=1, max_size=3, unique=True))
    held = draw(st.sets(st.integers(0, rank - 1)))
    zero = (0,) * rank
    units = [tuple(int(t == j) for t in range(rank)) for j in range(rank)]
    system = []
    for _ in range(draw(st.integers(1, 3))):
        poly = {zero: 1}
        for point in points:
            a = draw(st.tuples(*[st.integers(-2, 2)] * rank))
            linear = {u: x for u, x in zip(units, a) if x}
            if sum(x * s for x, s in zip(a, point)):
                linear[zero] = -sum(x * s for x, s in zip(a, point))
            poly = _poly_mul(poly, linear)
        system.append(poly)
    for j in held:
        poly = {zero: 1, tuple(2 * x for x in units[j]): 1}  # m_j^2 + 1
        for value in {point[j] for point in points}:
            poly = _poly_mul(poly, {units[j]: 1, zero: -value} if value else {units[j]: 1})
        system.append(poly)
    return rank, held, [p for p in system if p]


@settings(max_examples=200, deadline=None)
@given(_systems_around_points())
def test_the_integer_solver_agrees_with_a_scan_around_known_points(case):
    # a box holding every point solves the system by brute force; with every
    # coordinate held alone the solutions all lie inside it, so the solver
    # must certify exactly them, and otherwise any answer it certifies
    # solves the system and covers the box
    rank, held, system = case
    scan = [
        m for m in product(range(-4, 5), repeat=rank) if all(_vanishes(p, m) for p in system)
    ]
    solutions = _solve_integer_system(system, tuple(range(rank)), 256)
    if len(held) == rank:
        assert solutions == scan
    elif solutions is not None:
        assert all(_vanishes(p, m) for p in system for m in solutions)
        assert set(scan) <= set(solutions)


def test_three_coordinates_none_held_alone_stay_undetermined():
    # x*y = 0, y*z = 0 and x*z - 1 = 0 meet at no integer point, but no
    # condition holds one coordinate alone, and resultants are only taken
    # at two coordinates
    system = [{(1, 1, 0): 1}, {(0, 1, 1): 1}, {(1, 0, 1): 1, (0, 0, 0): -1}]
    assert _solve_integer_system(system, (0, 1, 2), 256) is None
    # holding x alone (x^2 = 1) decides it: then y = 0 and z = x
    system.append({(2, 0, 0): 1, (0, 0, 0): -1})
    assert _solve_integer_system(system, (0, 1, 2), 256) == [(-1, 0, -1), (1, 0, 1)]


def test_a_root_bound_over_the_cap_falls_through_to_elimination():
    # x - 2^11 alone is over a cap of 4 bits, but the resultant of x - y
    # and x + y - 2 in y is 2x - 2: x = 1, y = 1, and then x - 2^11 fails
    system = [{(1, 0): 1, (0, 0): -(2**11)}, {(1, 0): 1, (0, 1): -1}, {(1, 0): 1, (0, 1): 1, (0, 0): -2}]
    assert _solve_integer_system(system, (0, 1), 4) == []


# -- exact integer root isolation ----------------------------------------


def _poly_from_factors(factors):
    """Coefficients, lowest degree first, of a product of integer
    polynomials given lowest degree first."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


# integer factors with no integer root: x^2 - 2 and 3x - 1
_ROOTLESS = ([-2, 0, 1], [-1, 3])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.integers(-20, 20),
            st.integers(2**40, 2**45),
            st.integers(-(2**45), -(2**40)),
        ),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.sampled_from(_ROOTLESS), max_size=2),
    st.sampled_from([1, -3, 14]),
)
def test_integer_roots_of_a_product_are_its_integer_factors(roots, rootless, scale):
    # repeated roots, a root at 0 and roots beyond 2^40 are all drawn
    coeffs = _poly_from_factors([[-r, 1] for r in roots] + list(rootless))
    coeffs = [c * scale for c in coeffs]
    assert _integer_roots(coeffs, 256) == sorted(set(roots))


def test_integer_roots_agree_with_a_scan_inside_the_cauchy_bound():
    rng = random.Random(11)
    for _ in range(400):
        coeffs = [rng.randint(-36, 36) for _ in range(rng.randint(1, 6))]
        coeffs.append(rng.choice((-6, -3, 3, 9)))
        bound = 1 + max(abs(c) for c in coeffs[:-1]) // abs(coeffs[-1])
        scan = [
            k
            for k in range(-bound, bound + 1)
            if sum(c * k**j for j, c in enumerate(coeffs)) == 0
        ]
        assert _integer_roots(coeffs, 256) == scan, coeffs


def test_integer_roots_edge_cases():
    assert _integer_roots([5], 0) == []
    assert _integer_roots([0, 0, 3], 256) == [0]
    # a unit interval holding both roots of the derivative keeps its ends:
    # (x - 1)(2x - 3)(x - 2) has both critical points inside (1, 2)
    assert _integer_roots([-6, 13, -9, 2], 256) == [1, 2]
    # a cap of 0 bits leaves every nonconstant polynomial undetermined
    assert _integer_roots([0, 1], 0) is None


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sets(st.integers(-6, 6), max_size=4),
            st.integers(1, 5),
            st.sampled_from([2, -3, 6]),
        ),
        min_size=2,
        max_size=3,
    )
)
def test_one_variable_conditions_meet_in_their_common_integer_roots(conditions):
    # each condition is scale * (x^2 + c) * prod (x - r), non-monic, with
    # x^2 + c rootless; the solutions are the roots all of them share
    system = []
    for roots, c, scale in conditions:
        coeffs = _poly_from_factors([[-r, 1] for r in roots] + [[c, 0, 1], [scale]])
        system.append({(k,): a for k, a in enumerate(coeffs) if a})
    shared = set.intersection(*(roots for roots, _, _ in conditions))
    assert _solve_integer_system(system, (0,), 256) == [(r,) for r in sorted(shared)]


@pytest.mark.parametrize("k", [1, 10, 100, 1000, 10**6])
def test_lattice_modes_are_exact_for_large_k(k):
    # at c = 4*k*pi the dbar (2,0) space lives at the modes (+-k, 0); the
    # Cauchy bound of the mode polynomial is k^2 + 1
    spec = get_builtin("fls", {"c": f"{4 * k}*pi"})
    assert contributing_modes(_mode_matrix(spec, 2)) == [(-k, 0), (k, 0)]
    space = harmonic_basis_dbar(2, spec)
    assert (space.dimension, space.status) == (2, EXACT)


# -- products with a flat 2-torus -----------------------------------------

# the rank-2 [coframe] built-ins; fls at its default, at two lattice
# points and at a point where a, b and c carry pi
PRODUCT_POINTS = [
    ("fls", {}),
    ("fls", {"c": "4*pi"}),
    ("fls", {"a": "3", "b": "2", "c": "-4*pi"}),
    ("fls", {"a": "pi + 1/2", "b": "-2*pi", "c": "-(1/2)*pi"}),
    ("fls_nonak", {}),
    ("iwasawa_ak", {}),
]


def test_the_fls_t2_manifest_is_fls_times_a_flat_torus():
    text = (ROOT / "manifests" / "fls_t2.am").read_text(encoding="utf-8")
    assert text.endswith(times_torus2(BUILTINS["fls"]))


@pytest.mark.parametrize("name, overrides", PRODUCT_POINTS)
def test_a_product_with_a_flat_torus_adds_the_degree_below(name, overrides):
    # a dbar-closed (p,0)-form on X x T^2 is alpha + beta ^ phi^4 with alpha
    # and beta dbar-closed on X and constant along the torus, so
    # h^(p,0)(X x T^2) = h^(p,0)(X) + h^(p-1,0)(X); the modes are checked
    # by a scan, and the two filters by their own oracles
    report = compute_report(RunConfig(f"builtin:{name}", dict(overrides)))
    below = [0] + [report.spaces[("dbar", p)].dimension for p in range(4)] + [0]
    spec = load_spec(times_torus2(BUILTINS[name]), overrides)
    h = metric_for(spec)
    for p in range(5):
        matrix = _mode_matrix(spec, p)
        assert contributing_modes(matrix) == exhaustive_mode_scan(matrix, 2), p
        dbar = harmonic_basis_dbar(p, spec)
        assert dbar.dimension == below[p + 1] + below[p], p
        deltabar = harmonic_basis_deltabar(dbar, spec, h)
        assert deltabar.basis == star_criterion_filter(dbar, spec, h), p
        dol = dolbeault_basis(dbar, spec)
        assert all(mubar_mode(psi, spec).is_zero() for psi in dol.basis), p
        assert spans_equal(dol.basis + dbar.basis, dbar.basis), p
        mubar_rank = span_rank([mubar_mode(psi, spec) for psi in dbar.basis])
        assert dol.dimension == dbar.dimension - mubar_rank, p


# -- harmonic spaces -----------------------------------------------------


def test_dbar_space_degree_zero(fls):
    space = harmonic_basis_dbar(0, fls)
    assert (space.dimension, space.status) == (1, EXACT)
    assert spans_equal(space.basis, [invariant(fls, [("1", ())])])


def test_dbar_space_one_forms_all_parameter_points():
    for overrides in ({}, {"a": "2", "b": "1", "c": "4*pi"}, {"a": "1", "c": "-3"}):
        spec = get_builtin("fls", overrides)
        space = harmonic_basis_dbar(1, spec)
        assert (space.dimension, space.status) == (1, EXACT)
        assert spans_equal(space.basis, [invariant(spec, [("1", ("1",))])])


def test_dbar_space_two_forms_modes(fls_4pi):
    space = harmonic_basis_dbar(2, fls_4pi)
    assert (space.dimension, space.status) == (2, EXACT)
    plus = ModeForm(
        3, 2, {(1, 0): form(fls_4pi, [("1", ("1", "2")), ("-1", ("1", "3"))])}
    )
    minus = ModeForm(
        3, 2, {(-1, 0): form(fls_4pi, [("1", ("1", "2")), ("1", ("1", "3"))])}
    )
    assert spans_equal(space.basis, [plus, minus])


def test_dbar_space_iwasawa(iwasawa_ak):
    space = harmonic_basis_dbar(2, iwasawa_ak)
    assert (space.dimension, space.status) == (1, EXACT)
    expected = invariant(iwasawa_ak, [("i", ("1", "3")), ("1", ("2", "3"))])
    assert spans_equal(space.basis, [expected])


def test_deltabar_spaces(fls, fls_4pi, fls_metric, fls_4pi_metric, iwasawa_ak, iwasawa_ak_metric):
    def deltabar(p, spec, h):
        return harmonic_basis_deltabar(harmonic_basis_dbar(p, spec), spec, h)

    assert deltabar(3, fls, fls_metric).dimension == 0
    assert deltabar(2, fls_4pi, fls_4pi_metric).dimension == 0
    space = deltabar(2, iwasawa_ak, iwasawa_ak_metric)
    assert space.dimension == 1
    assert spans_equal(
        space.basis, [invariant(iwasawa_ak, [("i", ("1", "3")), ("1", ("2", "3"))])]
    )
    # bidegree reasons: on (1,0) the mu adjoint vanishes identically
    one_dbar = harmonic_basis_dbar(1, fls_4pi)
    one_delta = harmonic_basis_deltabar(one_dbar, fls_4pi, fls_4pi_metric)
    assert one_delta.dimension == one_dbar.dimension
    assert spans_equal(one_delta.basis, one_dbar.basis)


def test_dolbeault_spaces(fls, fls_4pi, iwasawa_ak, fls_nonak):
    def dol(p, spec):
        return dolbeault_basis(harmonic_basis_dbar(p, spec), spec)

    assert dol(1, fls).dimension == 1
    assert spans_equal(dol(1, fls).basis, [invariant(fls, [("1", ("1",))])])
    assert dol(2, fls_4pi).dimension == 0
    assert dol(3, fls).dimension == 0
    space = dol(2, iwasawa_ak)
    assert space.dimension == 1
    assert dol(2, fls_nonak).dimension == 0


def test_mubar_closed_form_values(fls_nonak, iwasawa_ak):
    # mubar Phi^{13} = (1/2) Phi^{1 1bar 3bar}
    img = fls_nonak.op_apply("mubar", Form.monomial(3, (1, 3)))
    assert img == form(fls_nonak, [("1/2", ("1", "1b", "3b"))])
    # mubar(i phi^{13} + phi^{23}) = 0
    psi = form(iwasawa_ak, [("i", ("1", "3")), ("1", ("2", "3"))])
    assert iwasawa_ak.op_apply("mubar", psi).is_zero()


def test_basis_certificates_and_independence(fls_4pi, fls_4pi_metric, iwasawa_ak, iwasawa_ak_metric):
    for spec, h in ((fls_4pi, fls_4pi_metric), (iwasawa_ak, iwasawa_ak_metric)):
        for p in (0, 1, 2, 3):
            dbar_space = harmonic_basis_dbar(p, spec)
            assert basis_independent(dbar_space.basis)
            for psi in dbar_space.basis:
                assert dbar_mode(psi, spec).is_zero()
            for psi in harmonic_basis_deltabar(dbar_space, spec, h).basis:
                assert dbar_mode(psi, spec).is_zero()
                assert mubar_mode(star_mode(psi, h), spec).is_zero()
            for psi in dolbeault_basis(dbar_space, spec).basis:
                assert dbar_mode(psi, spec).is_zero()
                assert mubar_mode(psi, spec).is_zero()


def test_mode_zero_part_matches_invariant_laplacian(fls_4pi, fls_4pi_metric):
    blocks = laplacian_invariant("dbar", fls_4pi_metric, fls_4pi)
    for p in (0, 1, 2, 3):
        space = harmonic_basis_dbar(p, fls_4pi)
        zero_mode = (0, 0)
        invariant_count = sum(
            1 for mf in space.basis if set(mf.modes) == {zero_mode}
        )
        assert invariant_count == blocks[(p, 0)].dimension


def test_deltabar_mode_zero_part_matches_invariant_laplacian(
    fls_4pi, fls_4pi_metric, iwasawa_ak, iwasawa_ak_metric
):
    # the invariant part of the filter by the adjoint of mu must agree with
    # the kernel of the whole Laplacian on each (p,0) block
    for spec, h in ((fls_4pi, fls_4pi_metric), (iwasawa_ak, iwasawa_ak_metric)):
        blocks = laplacian_invariant("deltabar", h, spec)
        rank = spec.fibration.rank
        zero_mode = (0,) * rank
        for p in (0, 1, 2, 3):
            space = harmonic_basis_deltabar(harmonic_basis_dbar(p, spec), spec, h)
            invariant_count = sum(
                1 for mf in space.basis if set(mf.modes) == {zero_mode}
            )
            assert invariant_count == blocks[(p, 0)].dimension, (spec.name, p)


STAR_CRITERION_CASES = [(name, {}) for name in builtin_names()] + [
    ("fls", {"c": "4*pi"}),
    ("fls", {"a": "2*pi", "b": "pi/3", "c": "7/2"}),
]


@pytest.mark.parametrize("name, overrides", STAR_CRITERION_CASES)
def test_deltabar_space_is_the_star_criterion_filter(name, overrides):
    # the Gram adjoint of mu and the star criterion mubar(star psi) = 0 cut
    # the same kernel, and both bases are reduced echelon forms of it
    spec = get_builtin(name, overrides)
    h = metric_for(spec)
    for p in range(spec.n + 1):
        dbar = harmonic_basis_dbar(p, spec)
        assert harmonic_basis_deltabar(dbar, spec, h).basis == star_criterion_filter(
            dbar, spec, h
        ), (name, p)


# the second block couples all three coframe vectors; there the Gram
# factors of the adjoint change its kernel on the (2,0) block
OFF_DIAGONAL_GRAMS = [
    [["2", "i", "0"], ["-i", "2", "0"], ["0", "0", "1"]],
    [["2", "1", "0"], ["1", "2", "i"], ["0", "-i", "2"]],
]


@pytest.mark.parametrize("name", ["iwasawa_std", "iwasawa_ak"])
@pytest.mark.parametrize("gram", OFF_DIAGONAL_GRAMS)
def test_deltabar_space_is_the_star_criterion_filter_off_the_diagonal(name, gram):
    spec = get_builtin(name)
    h = metric_from_gram([[S(x) for x in row] for row in gram], spec)
    cut = 0
    for p in range(spec.n + 1):
        dbar = harmonic_basis_dbar(p, spec)
        space = harmonic_basis_deltabar(dbar, spec, h)
        assert space.basis == star_criterion_filter(dbar, spec, h), p
        cut += len(dbar.basis) - len(space.basis)
    assert cut > 0


def test_undetermined_propagates_to_filters(fls_4pi, fls_4pi_metric):
    space = harmonic_basis_dbar(2, fls_4pi, cap=0)
    assert space.status == UNDETERMINED and space.dimension is None
    assert space.basis is None
    assert harmonic_basis_deltabar(space, fls_4pi, fls_4pi_metric).status == UNDETERMINED
    assert dolbeault_basis(space, fls_4pi).status == UNDETERMINED


def test_modeform_arithmetic_and_pretty(fls_4pi):
    a = ModeForm(3, 2, {(1, 0): Form.monomial(3, (1,))})
    b = ModeForm(3, 2, {(1, 0): Form.monomial(3, (1,), -ONE)})
    assert (a + b).is_zero()
    assert a.scale(Scalar.integer(2)).modes[(1, 0)] == Form.monomial(
        3, (1,), Scalar.integer(2)
    )
    text = a.pretty("phi", ("x", "t"))
    assert text == "e^{2 pi i (x)}*phi^{1}"
    c = ModeForm(3, 2, {(-1, 2): Form.monomial(3, (1, 2))})
    assert c.pretty("phi", ("x", "t")) == "e^{2 pi i (-x + 2*t)}*phi^{12}"


def test_d_mode_detects_nonclosed_mode_forms(fls_4pi):
    # the contributing-mode basis elements are dbar-closed but not d-closed
    space = harmonic_basis_dbar(2, fls_4pi)
    for psi in space.basis:
        if set(psi.modes) != {(0, 0)}:
            assert dbar_mode(psi, fls_4pi).is_zero()
            assert not d_mode(psi, fls_4pi).is_zero()
