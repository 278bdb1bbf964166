"""Acceptance suite: one test per criterion, every assertion exact.

Each test finishes by printing a single PASS line (visible with pytest -s or
in the captured section), so the suite doubles as a checklist.
"""

import random

from ahodge import linalg
from ahodge.algebra import Form, words_of_degree
from ahodge.builtins import get_builtin
from ahodge.fourier import (
    EXACT,
    contributing_modes,
    dbar_mode,
    dolbeault_basis,
    harmonic_basis_dbar,
    harmonic_basis_deltabar,
    mode_matrix,
)
from ahodge.hermitian import metric_for
from ahodge.obstruction import symplectic_obstruction
from ahodge.pdesolve import build_dbar_system, reduce
from util import (
    adjoint_matrix,
    check_ak_identity,
    d2_relations_all_degrees,
    exhaustive_mode_scan,
    gram_matrix,
    hodge_star,
    invariant,
    mat_eq,
    mubar_mode,
    operator_matrix,
    spans_equal,
    star_mode,
)


def _pass(n, text):
    print(f"ACCEPTANCE criterion {n}: PASS - {text}")


def _dbar_dims(spec):
    out = []
    for p in (1, 2, 3):
        space = harmonic_basis_dbar(p, spec)
        assert space.status == EXACT, (spec.name, p)
        out.append(space.dimension)
    return tuple(out)


def _filtered_dims(spec, h):
    deltabar, dol = [], []
    for p in (1, 2, 3):
        dbar = harmonic_basis_dbar(p, spec)
        d1 = harmonic_basis_deltabar(dbar, spec, h)
        d2 = dolbeault_basis(dbar, spec)
        assert d1.status == EXACT and d2.status == EXACT
        deltabar.append(d1.dimension)
        dol.append(d2.dimension)
    return tuple(deltabar), tuple(dol)


def test_criterion_1_family_tables():
    generic = [("1", "0", "1"), ("2", "1", "2*pi"), ("1", "0", "-3")]
    lattice = [("1", "0", "4*pi"), ("3", "2", "-4*pi"), ("1", "1", "8*pi")]
    for a, b, c in generic:
        spec = get_builtin("fls", {"a": a, "b": b, "c": c})
        assert _dbar_dims(spec) == (1, 0, 1), (a, b, c)
    for a, b, c in lattice:
        spec = get_builtin("fls", {"a": a, "b": b, "c": c})
        assert _dbar_dims(spec) == (1, 2, 1), (a, b, c)
    _pass(1, "family dbar tables (1,0,1) and (1,2,1) at all six points")


def test_criterion_2_family_corner_case():
    for a in ("2", "-2"):
        spec = get_builtin("fls", {"a": a, "b": "0", "c": "-1"})
        space = harmonic_basis_dbar(1, spec)
        assert (space.dimension, space.status) == (1, EXACT)
        assert spans_equal(space.basis, [invariant(spec, [("1", ("1",))])])
    _pass(2, "corner points (+-2, 0, -1) keep h^{1,0} = 1 with basis {phi^1}")


def test_criterion_3_family_filtered_tables():
    for overrides in (
        {"a": "1", "b": "0", "c": "1"},
        {"a": "1", "b": "0", "c": "4*pi"},
        {"a": "3", "b": "2", "c": "-4*pi"},
    ):
        spec = get_builtin("fls", overrides)
        h = metric_for(spec)
        deltabar, dol = _filtered_dims(spec, h)
        assert deltabar == (1, 0, 0), overrides
        assert dol == (1, 0, 0), overrides
    _pass(3, "family deltabar and Dolbeault tables are (1,0,0) on both branches")


def test_criterion_4_nonak_structure():
    spec = get_builtin("fls_nonak")
    h = metric_for(spec)
    assert _dbar_dims(spec) == (1, 1, 1)
    expected = {
        1: invariant(spec, [("1", ("1",))]),
        2: invariant(spec, [("1", ("1", "3"))]),
        3: invariant(spec, [("1", ("1", "2", "3"))]),
    }
    for p, want in expected.items():
        assert spans_equal(harmonic_basis_dbar(p, spec).basis, [want]), p
    deltabar, dol = _filtered_dims(spec, h)
    assert deltabar == (1, 0, 0)
    assert dol == (1, 0, 0)
    _pass(4, "second structure: dbar bases {Phi^1},{Phi^13},{Phi^123}; filters (1,0,0)")


def test_criterion_5_iwasawa_ak():
    spec = get_builtin("iwasawa_ak")
    h = metric_for(spec)
    assert _dbar_dims(spec) == (1, 1, 1)
    expected = {
        1: invariant(spec, [("1", ("3",))]),
        2: invariant(spec, [("i", ("1", "3")), ("1", ("2", "3"))]),
        3: invariant(spec, [("1", ("1", "2", "3"))]),
    }
    for p, want in expected.items():
        assert spans_equal(harmonic_basis_dbar(p, spec).basis, [want]), p
    deltabar, dol = _filtered_dims(spec, h)
    assert deltabar == (1, 1, 0)
    assert dol == (1, 1, 0)
    _pass(5, "Iwasawa almost-Kahler: dbar (1,1,1), deltabar (1,1,0), Dol (1,1,0)")


def test_criterion_6_obstruction():
    std = get_builtin("iwasawa_std")
    verdict = symplectic_obstruction(std, harmonic_basis_dbar(1, std))
    assert verdict.verdict == "Obstructed"
    assert spans_equal([verdict.witness], [invariant(std, [("1", ("3",))])])
    nonak = get_builtin("fls_nonak")
    assert symplectic_obstruction(nonak, harmonic_basis_dbar(1, nonak)).verdict == "Inconclusive"
    rng = random.Random(61)
    for _ in range(5):
        overrides = {
            "a": rng.choice(["1", "2", "-1", "1/2", "3"]),
            "b": rng.choice(["0", "1", "-1"]),
            "c": rng.choice(["1", "-2", "4*pi", "-4*pi", "2/3"]),
        }
        spec = get_builtin("fls", overrides)
        verdict = symplectic_obstruction(spec, harmonic_basis_dbar(1, spec))
        assert verdict.verdict == "Inconclusive", overrides
    _pass(6, "obstruction verdicts: Obstructed with witness psi^3; Inconclusive elsewhere")


def test_criterion_7_almost_kahler_identity():
    points = (
        {"a": "1", "b": "0", "c": "1"},
        {"a": "2", "b": "1", "c": "4*pi"},
        {"a": "1", "b": "0", "c": "-3"},
    )
    for overrides in points:
        spec = get_builtin("fls", overrides)
        h = metric_for(spec)
        assert check_ak_identity(h, spec), overrides
    iwa = get_builtin("iwasawa_ak")
    assert check_ak_identity(metric_for(iwa), iwa)
    _pass(7, "mixed Laplacians coincide exactly on all invariant blocks")


ALL = ("fls", "fls_nonak", "iwasawa_ak", "iwasawa_std", "iwasawa_complex")


def test_criterion_8_structural_suites():
    specs = [get_builtin(name) for name in ALL]
    specs.append(get_builtin("fls", {"c": "4*pi"}))
    for spec in specs:
        for name, ok, witness in d2_relations_all_degrees(spec):
            assert ok, (spec.name, name, witness)
        h = metric_for(spec)
        # star o star = (-1)^k on all 64 monomials
        for k in range(7):
            for w in words_of_degree(3, k):
                alpha = Form.monomial(3, w)
                twice = hodge_star(h, hodge_star(h, alpha))
                assert twice == (alpha if k % 2 == 0 else -alpha), (spec.name, w)
        # adjoint involution on every degree
        for k in range(6):
            m = operator_matrix("dbar", spec, k)
            gs, gt = gram_matrix(h.gram, k), gram_matrix(h.gram, k + 1)
            assert mat_eq(adjoint_matrix(adjoint_matrix(m, gs, gt), gt, gs), m)
        # mode oracle: exhaustive |m| <= 25 scan matches the Diophantine search
        for p in (0, 1, 2, 3):
            reduced = reduce(build_dbar_system(p, spec), spec)
            if reduced.has_free:
                raise AssertionError((spec.name, p, "unexpected free unknowns"))
            matrix = mode_matrix(reduced, spec)
            found = contributing_modes(matrix)
            scanned = exhaustive_mode_scan(matrix, 25)
            assert found == scanned, (spec.name, p, found, scanned)
    _pass(8, "d^2 relations, star parity, adjoint involution, mode-scan agreement")


def test_criterion_9_basis_certificates():
    cases = [get_builtin(name) for name in ALL] + [get_builtin("fls", {"c": "4*pi"})]
    checked = 0
    for spec in cases:
        h = metric_for(spec)
        for p in (0, 1, 2, 3):
            dbar = harmonic_basis_dbar(p, spec)
            for psi in dbar.basis:
                assert dbar_mode(psi, spec).is_zero(), (spec.name, p)
                checked += 1
            for psi in harmonic_basis_deltabar(dbar, spec, h).basis:
                assert dbar_mode(psi, spec).is_zero(), (spec.name, p)
                assert mubar_mode(star_mode(psi, h), spec).is_zero(), (spec.name, p)
                checked += 1
            for psi in dolbeault_basis(dbar, spec).basis:
                assert dbar_mode(psi, spec).is_zero(), (spec.name, p)
                assert mubar_mode(psi, spec).is_zero(), (spec.name, p)
                checked += 1
    assert checked > 40
    _pass(9, f"{checked} reported basis elements re-verified by symbolic expansion")
