import random

from ahodge.builtins import get_builtin
from ahodge.fourier import d_mode, dbar_mode, harmonic_basis_dbar
from ahodge.hermitian import metric_for
from ahodge.obstruction import coframe_obstruction, symplectic_obstruction


def search(spec):
    """The obstruction search over the spec's degree-1 dbar space."""
    return symplectic_obstruction(spec, harmonic_basis_dbar(1, spec))


def test_conjugated_iwasawa_coframe_is_obstructed(iwasawa_std):
    verdict = coframe_obstruction(iwasawa_std)
    assert verdict.verdict == "Obstructed"
    assert verdict.rule == "coframe_corollary"
    assert set(verdict.witness.modes[()].coeffs) == {(3,)}

    full = search(iwasawa_std)
    assert full.verdict == "Obstructed"
    assert set(full.witness.modes[()].coeffs) == {(3,)}
    assert full.certificate == {
        "dbar_witness_zero": True,
        "d_witness_nonzero": True,
    }


def test_family_is_inconclusive(fls, fls_4pi):
    for spec in (fls, fls_4pi):
        assert coframe_obstruction(spec).verdict == "Inconclusive"
        assert search(spec).verdict == "Inconclusive"


def test_nonak_structure_is_inconclusive(fls_nonak):
    # no compatible symplectic structure exists here, but the criterion
    # cannot see that; Inconclusive is the only sound answer
    assert search(fls_nonak).verdict == "Inconclusive"


def test_integrable_iwasawa_obstructed(iwasawa_complex):
    # d phi^3 = -phi^{12} is pure (2,0) and nonzero, so the coframe
    # criterion fires even though the structure is integrable
    verdict = coframe_obstruction(iwasawa_complex)
    assert verdict.verdict == "Obstructed"
    both = search(iwasawa_complex)
    assert both.verdict == "Obstructed"


def test_obstruction_never_fires_on_almost_kahler_points():
    # soundness: whenever a compatible closed fundamental form exists, the
    # obstruction search must come back Inconclusive
    rng = random.Random(20240817)
    for _ in range(5):
        a = rng.choice(["1", "2", "3", "-1", "1/2"])
        b = rng.choice(["0", "1", "-2"])
        c = rng.choice(["1", "-3", "2*pi", "4*pi", "1/3"])
        spec = get_builtin("fls", {"a": a, "b": b, "c": c})
        h = metric_for(spec)
        assert h.is_almost_kahler, (a, b, c)
        verdict = search(spec)
        assert verdict.verdict == "Inconclusive", (a, b, c)


def test_witness_certificates_reverify_independently(iwasawa_std, iwasawa_complex):
    for spec in (iwasawa_std, iwasawa_complex):
        verdict = search(spec)
        psi = verdict.witness
        assert dbar_mode(psi, spec).is_zero()
        assert not d_mode(psi, spec).is_zero()
