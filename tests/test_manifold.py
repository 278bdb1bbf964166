import json
import random
import re
from functools import partial
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ahodge.algebra import Form, words_of_degree
from ahodge.builtins import BUILTINS, builtin_names, get_builtin
from ahodge.cli import RunConfig, compute_report, report_to_dict, run
from ahodge.hermitian import metric_for
from ahodge.manifold import (
    BIDEGREE_SHIFTS,
    D2_RELATIONS,
    JacobiViolation,
    ManifoldSpec,
    NonInvertibleCoframe,
    NotUnimodular,
    load_spec,
)
from ahodge.scalars import ONE, ParseError, Scalar, format_scalar
from util import (
    NON_REAL,
    TOY,
    S,
    d2_relations_all_degrees,
    e_form,
    form,
    phi_side_verdicts,
    word,
)

ALL_BUILTINS = ["fls", "fls_nonak", "iwasawa_ak", "iwasawa_std", "iwasawa_complex"]


@pytest.fixture(scope="module", params=ALL_BUILTINS)
def any_builtin(request):
    return get_builtin(request.param)


def brute_force_d(spec, alpha):
    """Independent Leibniz oracle: split each word at its first letter."""
    out = Form.zero(spec.n)
    for w, c in alpha.coeffs.items():
        out = out + _d_word_recursive(spec, w).scale(c)
    return out


def _d_word_recursive(spec, w):
    if not w:
        return Form.zero(spec.n)
    head, rest = w[0], w[1:]
    head_form = Form.monomial(spec.n, (head,))
    d_head = spec.dphi[(head - 1) % spec.n]
    d_head = d_head.conj() if head > spec.n else d_head
    term = d_head.wedge(Form.monomial(spec.n, rest))
    return term - head_form.wedge(_d_word_recursive(spec, rest))


def test_builtins_load_and_validate():
    for name in ALL_BUILTINS:
        spec = get_builtin(name)
        assert spec.name == name
        assert spec.n == 3


def test_family_point_loads():
    spec = get_builtin("fls", {"a": "1", "b": "0", "c": "4*pi"})
    assert spec.params["c"] == S("4*pi")


def test_real_structure_equations_roundtrip(fls):
    # d e5 = -e15 and d e3 = -e13 - e25, read back through the phi-basis
    e = partial(e_form, fls)
    assert fls.exterior_d(e(5)) == -e(1).wedge(e(5))
    assert fls.exterior_d(e(3)) == -e(1).wedge(e(3)) - e(2).wedge(e(5))
    assert fls.exterior_d(e(1)).is_zero()


def test_complex_structure_equations_fls():
    spec = get_builtin("fls", {"a": "2", "b": "1", "c": "4*pi"})
    assert spec.dphi[0].is_zero()
    expected_d2 = form(
        spec,
        [
            ("c/4", ("1", "3")),
            ("-1/(2*a)", ("1", "2b")),
            ("-c/4", ("1", "3b")),
            ("c/4", ("3", "1b")),
            ("-1/(2*a)", ("1b", "2b")),
            ("c/4", ("1b", "3b")),
        ],
    )
    assert spec.dphi[1] == expected_d2
    expected_d3 = form(
        spec,
        [
            ("c/4", ("1", "2")),
            ("-c/4", ("1", "2b")),
            ("1/(2*a)", ("1", "3b")),
            ("c/4", ("2", "1b")),
            ("c/4", ("1b", "2b")),
            ("1/(2*a)", ("1b", "3b")),
        ],
    )
    assert spec.dphi[2] == expected_d3


def test_complex_structure_equations_iwasawa_ak(iwasawa_ak):
    expected_d1 = form(
        iwasawa_ak,
        [
            ("-1/4", ("1", "3")),
            ("-i/4", ("2", "3")),
            ("1/4", ("1", "3b")),
            ("-i/4", ("2", "3b")),
            ("1/4", ("3", "1b")),
            ("i/4", ("3", "2b")),
            ("1/4", ("1b", "3b")),
            ("-i/4", ("2b", "3b")),
        ],
    )
    assert iwasawa_ak.dphi[0] == expected_d1
    assert iwasawa_ak.dphi[2].is_zero()


def test_exterior_d_leibniz_example(fls):
    e = partial(e_form, fls)
    d13 = fls.exterior_d(e(1).wedge(e(3)))
    assert d13 == e(1).wedge(e(2)).wedge(e(5))


def test_exterior_d_is_linear_and_leibniz(fls_4pi):
    spec = fls_4pi
    rng = random.Random(7)
    words = [w for k in range(5) for w in words_of_degree(3, k)]
    coeffs = [ONE, Scalar.rational(1, 2), Scalar.pi_power(1), -ONE]
    for _ in range(40):
        a = Form.monomial(3, rng.choice(words), rng.choice(coeffs))
        b = Form.monomial(3, rng.choice(words), rng.choice(coeffs))
        da, db = spec.exterior_d(a), spec.exterior_d(b)
        assert spec.exterior_d(a + b) == da + db
        ka = a.degree()
        sign = ONE if ka % 2 == 0 else -ONE
        both = spec.exterior_d(a.wedge(b))
        assert both == da.wedge(b) + a.wedge(db).scale(sign)


def test_exterior_d_matches_bruteforce_oracle(any_builtin):
    spec = any_builtin
    rng = random.Random(11)
    words = [w for k in range(7) for w in words_of_degree(3, k)]
    coeffs = [ONE, -ONE, Scalar.rational(2, 3), Scalar.pi_power(1)]
    for _ in range(100):
        alpha = Form.zero(3)
        for _ in range(rng.randint(1, 3)):
            alpha = alpha + Form.monomial(3, rng.choice(words), rng.choice(coeffs))
        assert spec.exterior_d(alpha) == brute_force_d(spec, alpha)


D_ORACLE_CASES = [(name, {}) for name in builtin_names()] + [
    ("torus6", {}),
    ("fls", {"a": "2*pi", "b": "pi", "c": "1/(2*pi)"}),
]


@pytest.mark.parametrize("name, overrides", D_ORACLE_CASES)
def test_d_word_matches_the_wedge_oracle_on_every_word(name, overrides):
    spec = load_spec(TORUS6.read_text()) if name == "torus6" else get_builtin(name, overrides)
    for k in range(2 * spec.n + 1):
        for w in words_of_degree(spec.n, k):
            assert spec.d_word(w) == brute_force_d(spec, Form.monomial(spec.n, w)), w


def test_d_squared_vanishes_on_random_forms(any_builtin):
    spec = any_builtin
    rng = random.Random(3)
    words = [w for k in range(6) for w in words_of_degree(3, k)]
    for _ in range(25):
        alpha = Form.monomial(3, rng.choice(words), Scalar.rational(rng.randint(1, 5)))
        assert spec.exterior_d(spec.exterior_d(alpha)).is_zero()


def test_split_components_sum_to_d(any_builtin):
    spec = any_builtin
    for k in range(2 * spec.n + 1):
        for w in words_of_degree(spec.n, k):
            base = Form.monomial(spec.n, w)
            total = Form.zero(spec.n)
            for which in BIDEGREE_SHIFTS:
                total = total + spec.op_apply(which, base)
            assert total == spec.exterior_d(base), w


def test_split_shifts_bidegree(fls_4pi):
    for which, (dp, dq) in (
        ("mu", (2, -1)),
        ("del", (1, 0)),
        ("dbar", (0, 1)),
        ("mubar", (-1, 2)),
    ):
        for w in words_of_degree(3, 2):
            image = fls_4pi.op_apply(which, Form.monomial(3, w))
            for part in image.bidegree_split():
                p = sum(1 for j in w if j <= 3)
                q = len(w) - p
                assert part == (p + dp, q + dq)


def test_split_block_matrices(iwasawa_std, fls):
    src = iwasawa_std.block_words(1, 0)
    tgt = iwasawa_std.block_words(0, 2)
    mat = iwasawa_std.piece_matrix((1, 0), "mubar")
    assert src == [(1,), (2,), (3,)]
    # d psi^3 = -psi^{1bar 2bar} is the only (0,2) image
    col = src.index((3,))
    row = tgt.index(word(3, "1b", "2b"))
    assert mat[row][col] == -ONE
    assert all(
        mat[r][c].is_zero()
        for r in range(len(tgt))
        for c in range(len(src))
        if (r, c) != (row, col)
    )
    # a piece whose target block is empty has no matrix
    assert fls.block_words(3, -1) == []
    assert fls.piece_matrix((1, 0), "mu") is None


def test_operator_values_from_structure_equations(fls, iwasawa_std):
    # mu on a (1,0)-form is trivially zero (it would land in q = -1)
    assert fls.op_apply("mu", Form.monomial(3, (2,))).is_zero()
    # mubar phi^3 = -psi^{1bar 2bar} for the conjugated Iwasawa coframe
    img = iwasawa_std.op_apply("mubar", Form.monomial(3, (3,)))
    assert img == -Form.monomial(3, word(3, "1b", "2b"))
    # mubar phi^{123} for the family
    img = fls.op_apply("mubar", Form.monomial(3, (1, 2, 3)))
    expected = form(
        fls,
        [
            ("1/(2*a)", ("1", "3", "1b", "2b")),
            ("-c/4", ("1", "3", "1b", "3b")),
            ("c/4", ("1", "2", "1b", "2b")),
            ("1/(2*a)", ("1", "2", "1b", "3b")),
        ],
    )
    assert img == expected


MANIFESTS = Path(__file__).resolve().parents[1] / "manifests"
D2_CASES = (
    [(name, {}) for name in builtin_names()]
    + [("fls", {"c": "4*pi"})]
    + [(path.name, None) for path in sorted(MANIFESTS.glob("*.am"))]
)


@pytest.mark.parametrize("source, overrides", D2_CASES)
def test_all_seven_relations_hold_in_every_degree(source, overrides):
    # loading certifies d^2 = 0 on the generators only; the oracle applies
    # each relation to every invariant monomial
    if overrides is None:
        spec = load_spec((MANIFESTS / source).read_text(encoding="utf-8"))
    else:
        spec = get_builtin(source, overrides)
    report = d2_relations_all_degrees(spec)
    assert [name for name, _ok, _w in report] == list(D2_RELATIONS)
    assert all(ok for _name, ok, _w in report), report


D2_FAILS_COMPLEX = """
[manifold]
name = d2fails
dim = 6

[complex_coframe]
d phi1 = 0
d phi2 = phi[2 3b]
d phi3 = phi[1 2]
"""


@pytest.mark.parametrize(
    "text, letter", [(TOY.replace("{DE4}", "e34"), "e"), (D2_FAILS_COMPLEX, "phi")]
)
def test_a_failing_relation_is_rejected_at_load(monkeypatch, text, letter):
    # with validation skipped, the all-degree oracle sees a relation fail
    with monkeypatch.context() as patched:
        patched.setattr(ManifoldSpec, "validate", lambda self: None)
        spec = load_spec(text)
    assert not all(ok for _name, ok, _w in d2_relations_all_degrees(spec))
    n = spec.n
    if letter == "e":
        e = partial(e_form, spec)
        first = [spec.exterior_d(spec.exterior_d(e(k))) for k in range(1, 2 * n + 1)]
    else:
        first = [spec.exterior_d(spec.exterior_d(spec.generator(a))) for a in range(1, n + 1)]
    k, residue = next((k, r) for k, r in enumerate(first, 1) if not r.is_zero())
    # with validation, loading names the first element whose d^2 fails
    with pytest.raises(JacobiViolation) as err:
        load_spec(text)
    assert (err.value.index, err.value.residue) == (f"{letter}{k}", residue)


def test_a_run_evaluates_d_squared_on_the_generators_once(monkeypatch):
    # d^2 is evaluated at load and takes no matrix product.  On [coframe] it
    # is read on the declared d e^1..d e^6, whose constants are rational,
    # once per distinct real structure in a process: a second load, a run
    # and another point of the same equations reuse the certificate.  On
    # [complex_coframe] it is read on phi^1..phi^3 at every load (d is real,
    # so d^2 of the conjugate generators is read off those)
    from ahodge import linalg, manifold

    evaluated, products, checks = [], [], []
    original_d, original_mul = ManifoldSpec.exterior_d, linalg.mat_mul
    original_check, original_derive = ManifoldSpec.check_d2_relations, manifold._derive

    def d_spy(self, alpha):
        evaluated.extend(f"phi{a}" for a in range(1, 2 * self.n + 1) if alpha is self._dgen[a])
        return original_d(self, alpha)

    def derive_spy(alpha, images):
        evaluated.extend(f"e{k}" for k, f in images.items() if alpha is f)
        return original_derive(alpha, images)

    def mul_spy(a, b):
        products.append(len(a))
        return original_mul(a, b)

    def check_spy(self):
        checks.append(self.name)
        return original_check(self)

    monkeypatch.setattr(ManifoldSpec, "exterior_d", d_spy)
    monkeypatch.setattr(manifold, "_derive", derive_spy)
    monkeypatch.setattr(linalg, "mat_mul", mul_spy)
    monkeypatch.setattr(ManifoldSpec, "check_d2_relations", check_spy)
    e_words = [f"e{k}" for k in range(1, 7)]
    phi_words = ["phi1", "phi2", "phi3"]
    for name, overrides, section, pinned, checked in [
        ("fls", {}, "coframe", e_words, []),
        ("fls", {}, "coframe", [], []),
        ("fls", {"a": "2", "c": "pi"}, "coframe", [], []),
        ("fls_nonak", {}, "coframe", [], []),  # the same d e^k as fls
        ("iwasawa_ak", {}, "coframe", e_words, []),
        ("iwasawa_std", {}, "complex_coframe", phi_words, ["iwasawa_std"]),
        ("iwasawa_std", {}, "complex_coframe", phi_words, ["iwasawa_std"]),
    ]:
        for spied in (evaluated, products, checks):
            spied.clear()
        assert get_builtin(name, overrides).section == section
        assert (evaluated, checks) == (pinned, checked)
        assert products == []
    for name, pinned in [("fls", []), ("iwasawa_std", phi_words)]:
        evaluated.clear()
        out, code = run(RunConfig(f"builtin:{name}", report_format="json"))
        assert code == 0
        assert json.loads(out)["flags"]["d2_relations_hold"] is True
        assert evaluated == pinned


def test_a_failed_certificate_is_not_kept_and_names_its_generator():
    # only successes are kept: a structure that fails d^2 = 0 or
    # unimodularity raises the full check's error at every load, with the
    # same text, and a valid structure loaded between them stays certified
    from ahodge import manifold

    broken = TOY.replace("{DE4}", "e34")
    not_unimodular = TOY.replace("{DE4}", "e14")
    for text, error in [(broken, JacobiViolation), (not_unimodular, NotUnimodular)]:
        with pytest.raises(error) as cold:
            load_spec(text)
        get_builtin("fls")
        with pytest.raises(error) as warm:
            load_spec(text)
        assert str(warm.value) == str(cold.value)
    assert manifold._certify.cache_info().currsize == 1


# real structure equations {k: {word: coefficient}} with d^2 = 0: the flat
# 4-torus, Kodaira-Thurston, a unimodular solvable algebra, one that is not
# unimodular (d e3 = e13), and the real equations of three 6-manifolds
KNOWN_EQUATIONS = {
    2: [
        {},
        {4: {(1, 2): ONE}},
        {2: {(1, 2): ONE}, 3: {(1, 3): -ONE}},
        {3: {(1, 3): ONE}},
    ],
    3: [
        load_spec(text).real_d
        for text in (BUILTINS["fls"], BUILTINS["iwasawa_ak"], TOY.replace("{DE4}", "e13"))
    ],
}
RATIONALS = [Scalar.rational(p, q) for p, q in ((1, 1), (-1, 1), (2, 1), (-1, 2), (3, 2))]
ACS_COEFFS = ("1", "-1", "2", "i", "1/2 + i", "pi", "i*pi", "1/pi", "pi - 1")


@st.composite
def real_coframes(draw):
    """(n, {k: d e^k}, acs rows, a real 2-form) over e^1..e^2n: the
    equations are a known algebra scaled by a rational, or drawn at random,
    which mostly breaks d^2 = 0; the 2-form mixes the d e^k, which are
    closed when d^2 = 0, with a random word."""
    n = draw(st.sampled_from((2, 3)))
    pairs = list(combinations(range(1, 2 * n + 1), 2))
    coeffs = st.dictionaries(st.sampled_from(pairs), st.sampled_from(RATIONALS), max_size=2)
    if draw(st.booleans()):
        t = draw(st.sampled_from(RATIONALS))
        known = draw(st.sampled_from(KNOWN_EQUATIONS[n]))
        de = {k: {w: c * t for w, c in f.items()} for k, f in known.items()}
    else:
        de = {k: draw(coeffs) for k in range(1, 2 * n + 1)}
    extra = st.lists(st.tuples(st.integers(1, 2 * n), st.sampled_from(ACS_COEFFS)), max_size=2)
    rows = [
        " + ".join([f"e{2 * j - 1}", f"i*e{2 * j}"] + [f"({c})*e{k}" for k, c in draw(extra)])
        for j in range(1, n + 1)
    ]
    omega = Form(n, draw(coeffs))
    for k in draw(st.lists(st.integers(1, 2 * n), max_size=2)):
        omega = omega + Form(n, dict(de.get(k, {})))
    return n, de, rows, omega


def _real_manifest(n, de, rows):
    def rhs(f):
        return " + ".join(f"({format_scalar(c)})*e{i}{j}" for (i, j), c in f.items()) or "0"

    lines = ["[manifold]", "name = drawn", f"dim = {2 * n}", "[coframe]"]
    lines += [f"d e{k} = {rhs(de.get(k, {}))}" for k in range(1, 2 * n + 1)]
    lines += ["[acs]"] + [f"phi{j} = {row}" for j, row in enumerate(rows, 1)]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(real_coframes())
def test_the_declared_real_coframe_decides_as_the_phi_basis_does(drawn):
    # d^2 = 0, unimodularity and d omega = 0 read on the declared real
    # equations agree with the phi-basis after any constant change of
    # coframe, pi-bearing ones included; a failure of d^2 names the same
    # e^k with the same residue
    n, de, rows, omega = drawn
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(ManifoldSpec, "validate", lambda self: None)
        try:
            spec = load_spec(_real_manifest(n, de, rows))
        except NonInvertibleCoframe:
            assume(False)
    d2, unimodular, closed = phi_side_verdicts(spec, omega)
    try:
        spec.check_d2_relations()
        raised = None
    except JacobiViolation as exc:
        raised = (exc.index, exc.residue)
    assert raised == d2
    assert spec.real_closed({w: ONE} for w in words_of_degree(n, 2 * n - 1)) == unimodular
    assert spec.real_closed([omega.coeffs]) == closed
    if d2 is None:
        try:
            spec.validate()
        except NotUnimodular:
            assert not unimodular
        else:
            assert unimodular


def test_a_non_real_structure_equation_is_rejected_after_overrides():
    # d conj phi is read as conj(d phi), which holds only for real d e^k;
    # d e3 = i*e12 once loaded as an integrable EXACT manifold
    with pytest.raises(ParseError, match=r"^line 12: d e3 is not a real form$"):
        load_spec(NON_REAL)
    by_param = NON_REAL.replace("i*e12", "k*e12")
    assert load_spec(by_param).real_d[3] == {(1, 2): ONE}
    with pytest.raises(ParseError, match=r"^line 12: d e3 is not a real form$"):
        load_spec(by_param, {"k": "1 + i"})


def test_integrability_flags(fls, iwasawa_std, iwasawa_complex):
    assert not fls.is_integrable()
    assert not iwasawa_std.is_integrable()
    assert iwasawa_complex.is_integrable()


def test_two_step_example_has_vanishing_d_squared():
    # de3 = e12, de4 = e13: expanding d^2 e4 = -e1 ^ de3 = -e1 ^ e12 = 0,
    # so this loads cleanly
    spec = load_spec(TOY.replace("{DE4}", "e13"))
    assert spec.exterior_d(spec.exterior_d(e_form(spec, 4))).is_zero()


def test_jacobi_violation_detected():
    with pytest.raises(JacobiViolation):
        load_spec(TOY.replace("{DE4}", "e34"))


def test_sign_flip_in_structure_equation_is_caught():
    bad = BUILTINS["fls"].replace("d e5 = -e15", "d e5 = e15")
    with pytest.raises(JacobiViolation):
        load_spec(bad)


def test_non_invertible_coframe_rejected():
    bad = BUILTINS["fls_nonak"].replace("phi3 = e5 + i*e6", "phi3 = e1 + i*e2")
    with pytest.raises(NonInvertibleCoframe, match=r"^\[acs\]: phi1..phi3 and their"):
        load_spec(bad)


CROSS_VALIDATED = (
    BUILTINS["fls_nonak"]
    + """
[complex_coframe]
d phi1 = 0
d phi2 = (i/2)*phi[1 3] - (1/2)*phi[1 2b] + (i/2)*phi[3 1b] - (1/2)*phi[1b 2b]
d phi3 = -(1/2)*phi[1 3b] - (1/2)*phi[1b 3b]
"""
)


def test_cross_validation_of_declared_complex_equations():
    spec = load_spec(CROSS_VALIDATED)
    assert spec.name == "fls_nonak"


def test_cross_validation_rejects_wrong_declaration():
    wrong = CROSS_VALIDATED.replace("(i/2)*phi[1 3]", "(i/2)*phi[1 2]")
    with pytest.raises(ParseError):
        load_spec(wrong)


def test_empty_and_malformed_manifests():
    with pytest.raises(ParseError):
        load_spec("")
    with pytest.raises(ParseError):
        load_spec("[manifold]\nname = x\n")  # no dim
    with pytest.raises(ParseError):
        load_spec("stray line\n")


def test_fibration_validation():
    bad = BUILTINS["fls"].replace("V2: fiber", "V2: base, symbol = [1, 0]")
    with pytest.raises(ParseError):
        load_spec(bad)  # fiber_span lists V2, which is no longer pure fiber
    bad2 = BUILTINS["fls"].replace(
        "V1: base, symbol = [-pi, i*pi/(a*a0)]", "V1: base, symbol = [-pi]"
    )
    with pytest.raises(ParseError):
        load_spec(bad2)


def test_fibration_entries_may_come_in_any_order(tmp_path):
    text = BUILTINS["fls"].replace("rank = 2\n", "").replace(
        "fiber_span = [V2, V3]\n", "fiber_span = [V2, V3]\nrank = 2\n"
    )
    assert text.index("rank = 2") > text.index("V3: fiber")
    path = tmp_path / "fls.am"
    path.write_text(text)
    assert run(RunConfig(str(path))) == run(RunConfig("builtin:fls"))


def test_parameter_override_validation():
    with pytest.raises(ParseError):
        get_builtin("fls", {"zz": "1"})


def test_mode_symbols(fls, iwasawa_ak):
    # conj V1 acts on exp(2 pi i (lambda x + mu t / a0)) by -pi l + i pi m/(a a0)
    sig = fls.fibration.sigma(1, (2, 3))
    assert sig == S("-2*pi + 3*i*pi", fls)
    tau = fls.fibration.tau(1, (2, 3))
    assert tau == S("2*pi + 3*i*pi", fls)
    sig3 = iwasawa_ak.fibration.sigma(3, (1, 1))
    assert sig3 == S("i*pi - pi")


MALFORMED_LINES = [
    ("fls", "d e3 = -e13 - e25", "d e3 = -e13 / e25"),
    ("fls", "d e3 = -e13 - e25", "d e3 = e13^2"),
    ("fls", "d e3 = -e13 - e25", "d e3 = 1 + e13"),
    ("fls", "d e3 = -e13 - e25", "d e3 = 3"),
    ("fls", "d e3 = -e13 - e25", "d e3 = -e19"),
    ("iwasawa_std", "d phi3 = -phi[1b 2b]", "d phi3 = -phi[1b 4b]"),
    ("iwasawa_std", "d phi3 = -phi[1b 2b]", "d phi3 = -phi14"),
    ("iwasawa_std", "d phi3 = -phi[1b 2b]", "d phi3 = -phi[1b 2b"),
    ("fls", "symbol = [-pi, i*pi/(a*a0)]", "symbol = [-pi, i*pi/(a*a0)"),
    ("fls", "symbol = [-pi, i*pi/(a*a0)]", "symbol = [-pi, (i*pi/(a*a0)]"),
    ("fls", "symbol = [-pi, i*pi/(a*a0)]", "symbol = [-pi, i*pi/(a*a0)] 2"),
    ("iwasawa_std", "[0, 0, 2]]", "[0, 0, 2]"),
    ("iwasawa_std", "gram = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]", "gram = [2, 0, 0]"),
    ("fls", "coords = [x, t]", "coords = x, t"),
    ("fls", "fiber_span = [V2, V3]", "fiber_span = [V2, , V3]"),
    ("fls", "coords = [x, t]", "coords = [x 1, t]"),
    ("iwasawa_std", "gram = [[2, 0, 0]", "gram = [[0^-1, 0, 0]"),
    ("fls", "dim = 6", "dim = six"),
    ("fls", "rank = 2", "rank = two"),
    ("fls", "rank = 2", "rank = -1"),
    ("fls", "symbol = [-pi, i*pi/(a*a0)]", "symbol = [-pi]"),
]


@pytest.mark.parametrize("name, old, new", MALFORMED_LINES)
def test_malformed_line_is_rejected_with_its_line_number(name, old, new):
    document = BUILTINS[name].replace(old, new)
    assert document != BUILTINS[name]
    lineno = next(k for k, line in enumerate(document.splitlines(), 1) if new in line)
    with pytest.raises(ParseError) as err:
        load_spec(document)
    assert err.value.lineno == lineno


REPEATED_LINES = [
    ("fls", "d e3 = -e13 - e25", "d e3 = 0"),
    ("fls", "phi1 = a*e1 + i*e2", "phi1 = e1 + i*e2"),
    ("iwasawa_std", "d phi3 = -phi[1b 2b]", "d phi3 = 0"),
    ("fls", "omega = a*e12 + b*e56 + c*(e36 + e45)", "gram = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]"),
    ("iwasawa_std", "gram = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]", "omega = e13"),
    ("iwasawa_std", "gram = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]", "gram = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]"),
    ("fls", "a = 1", "a = 5"),
    ("fls", "name = fls", "name = other"),
    ("fls", "dim = 6", "dim = 4"),
    ("fls_nonak", "symbol = Phi", "symbol = Psi"),
    ("fls", "V1: base, symbol = [-pi, i*pi/(a*a0)]", "V1: fiber"),
    ("fls", "V2: fiber", "V2: base, symbol = [1, 0]"),
    ("fls", "rank = 2", "rank = 1"),
    ("fls", "coords = [x, t]", "coords = [u, v]"),
    ("fls", "fiber_span = [V2, V3]", "fiber_span = [V2]"),
]


@pytest.mark.parametrize("name, line, repeat", REPEATED_LINES)
def test_a_repeated_entry_is_rejected_with_its_line_number(name, line, repeat):
    # the repeat would otherwise replace the first entry unseen
    document = BUILTINS[name].replace(line, f"{line}\n{repeat}")
    lineno = next(k for k, text in enumerate(document.splitlines(), 1) if text == repeat)
    with pytest.raises(ParseError, match="given twice|second metric") as err:
        load_spec(document)
    assert err.value.lineno == lineno


def test_one_change_of_basis_per_load(monkeypatch):
    from ahodge import linalg

    calls = []
    original = linalg.inverse

    def counting(m):
        calls.append(len(m))
        return original(m)

    monkeypatch.setattr(linalg, "inverse", counting)
    spec = load_spec(BUILTINS["fls"])
    assert calls == [6]
    # the metric was converted with the same basis the spec keeps
    e = partial(e_form, spec)
    expected = e(1).wedge(e(2)) + (e(3).wedge(e(6)) + e(4).wedge(e(5)))
    assert spec.metric_source == ("omega", expected)


def test_bracketed_lists_use_the_scalar_grammar():
    spec = load_spec(
        BUILTINS["fls"]
        .replace("symbol = [-pi, i*pi/(a*a0)]", "symbol = [-(pi), (i*pi)/((a)*a0)]")
        .replace("coords = [x, t]", "coords = [ x ,t ]")
    )
    assert spec.fibration.symbols[1] == (S("-pi"), S("i*pi"))
    assert spec.fibration.coords == ("x", "t")
    gram = BUILTINS["iwasawa_std"].replace(
        "[[2, 0, 0], [0, 2, 0], [0, 0, 2]]", "[[2^1, 0, 0], [0, (4/2), 0], [0, 0, 1+1]]"
    )
    assert load_spec(gram).metric_source == load_spec(BUILTINS["iwasawa_std"]).metric_source


TORUS6 = Path(__file__).resolve().parents[1] / "manifests" / "torus6.am"


def _complex_route(text, overrides):
    """The manifest rewritten as [complex_coframe] plus gram: each d phi
    from the loaded spec in phi[1 2b] syntax, the Gram block of its metric,
    the overrides baked into [params], [manifold] and [fibration] kept."""
    spec = load_spec(text, overrides)
    n = spec.n
    lines = ["[manifold]", f"name = {spec.name}", f"dim = {2 * n}", f"symbol = {spec.symbol}"]
    lines += ["[params]"] + [f"{k} = {format_scalar(v)}" for k, v in spec.params.items()]
    lines.append("[complex_coframe]")
    for j, dphi in enumerate(spec.dphi, start=1):
        terms = [
            f"({format_scalar(c)})*phi[{' '.join(str(a) if a <= n else f'{a - n}b' for a in w)}]"
            for w, c in dphi.terms()
        ]
        lines.append(f"d phi{j} = " + (" + ".join(terms) or "0"))
    rows = (", ".join(format_scalar(x) for x in row) for row in metric_for(spec).gram.hermitian_block)
    lines += ["[metric]", "gram = [" + ", ".join(f"[{row}]" for row in rows) + "]"]
    fibration = re.search(r"^\[fibration\]$.*?(?=^\[|\Z)", text, flags=re.M | re.S)
    return "\n".join(lines) + "\n" + fibration[0]


REAL_ROUTE_CASES = [
    ("fls", {}),
    ("fls_nonak", {}),
    ("iwasawa_ak", {}),
    ("torus6", {}),
    ("fls", {"c": "4*pi"}),
    ("fls", {"a": "2*pi", "b": "pi/3", "c": "7/2"}),
]


@pytest.mark.parametrize("name, overrides", REAL_ROUTE_CASES)
def test_the_complex_route_gives_the_same_report(name, overrides, tmp_path):
    text = TORUS6.read_text() if name == "torus6" else BUILTINS[name]
    source = str(TORUS6) if name == "torus6" else f"builtin:{name}"
    path = tmp_path / f"{name}.am"
    path.write_text(_complex_route(text, overrides))
    assert "[coframe]" in text and "[coframe]" not in path.read_text()
    original = report_to_dict(compute_report(RunConfig(source, overrides)))
    rewritten = report_to_dict(compute_report(RunConfig(str(path))))
    for data in (original, rewritten):
        del data["manifold"]["params"]
    assert rewritten == original
