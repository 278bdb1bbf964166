"""One process, many loads: what is kept across loads (compiled expressions,
section splits, certified real structures, skeletons of the Laplacian flag)
never changes a spec, a report or an error message.  Each source is loaded
cold, with every memo cleared, and then warm, after every other source."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import ahodge
from ahodge.builtins import BUILTINS, builtin_names, get_builtin
from ahodge.cli import RunConfig, _load_source, run
from ahodge.manifold import load_spec
from ahodge.scalars import Scalar, compile_text, parse_scalar
from util import clear_memos

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"

# every built-in and manifest at its defaults, and each parameterised one at
# a point where every parameter carries pi
SOURCES = (
    [(f"builtin:{name}", {}) for name in builtin_names()]
    + [(str(path), {}) for path in sorted(MANIFESTS.glob("*.am"))]
    + [
        ("builtin:fls", {"a": "pi + 1/2", "b": "-2*pi", "c": "1/pi", "a0": "2*pi"}),
        ("builtin:fls_nonak", {"a0": "pi - 1"}),
    ]
)


def snapshot(source, params):
    spec = _load_source(source, dict(params))
    fields = (spec.dphi, spec._e_forms, spec.params, spec.metric_source, spec.fibration)
    report, code = run(RunConfig(source, dict(params), report_format="json"))
    return fields + (spec.real_d, spec.real_omega, report, code)


def test_warm_loads_and_reports_equal_cold_ones():
    cold = []
    for source, params in SOURCES:
        clear_memos()
        cold.append(snapshot(source, params))
    clear_memos()
    # A, B, ..., A, B, ...: each source again after all the others
    for k, (source, params) in enumerate(SOURCES + SOURCES):
        assert snapshot(source, params) == cold[k % len(SOURCES)], (source, params)
    info = compile_text.cache_info()
    assert info.hits > info.misses


FLS = BUILTINS["fls"]


def fls_with(old, new):
    """The fls text with line ``old`` replaced, and that line's number."""
    lines = FLS.splitlines()
    lineno = lines.index(old) + 1
    lines[lineno - 1] = new
    return "\n".join(lines), lineno


def _message(text, overrides):
    with pytest.raises((ValueError, ZeroDivisionError)) as err:
        load_spec(text, overrides)
    return str(err.value)


def _bad_inputs():
    """(text, overrides, message): value errors, raised only at some
    points of a text, and one behind a syntax error."""
    scalar_in_sum, k1 = fls_with("d e5 = -e15", "d e5 = a - 1 - e15")
    scalar_only, k2 = fls_with("d e1 = 0", "d e1 = a - 1")
    not_real, k3 = fls_with("d e3 = -e13 - e25", "d e3 = -e13 - e25 + (c - 1)*i*e12")
    return [
        (FLS, {"a0": "0"}, "line 31: division by zero"),
        (FLS, {"a": "1/(b)"}, "override a = 1/(b): division by zero"),
        # the value error left of the syntax error is the one reported
        (FLS, {"a": "1/b)"}, "override a = 1/b): division by zero"),
        (FLS, {"a": "x"}, "override a = x: unknown name 'x'"),
        (scalar_in_sum, {"a": "2"}, f"line {k1}: scalar used where a form is required"),
        (scalar_only, {"a": "2"}, f"line {k2}: expected a form, got a nonzero scalar"),
        (not_real, {"c": "2"}, f"line {k3}: d e3 is not a real form"),
    ]


BAD_INPUTS = _bad_inputs()


@pytest.mark.parametrize("text, overrides, message", BAD_INPUTS, ids=[m for *_, m in BAD_INPUTS])
def test_bad_input_reads_the_same_cold_and_warm(text, overrides, message):
    assert _message(text, overrides) == message
    # the same text loads at its defaults, which keeps its compiled lines
    assert load_spec(text).name == "fls"
    get_builtin("iwasawa_ak")
    assert _message(text, overrides) == message
    assert _message(text, overrides) == message


def test_the_memo_keeps_a_fixed_number_of_expressions():
    from ahodge import scalars

    assert isinstance(scalars.EXPRESSIONS, int)
    assert compile_text.cache_info().maxsize == scalars.EXPRESSIONS
    for k in range(scalars.EXPRESSIONS + 1):
        assert parse_scalar(f"{k}/2") == Scalar.rational(k, 2)
    assert compile_text.cache_info().currsize == scalars.EXPRESSIONS


def bounded_memos() -> dict:
    """Every module-level memo of a fixed size in the package, by name."""
    memos = {}
    for info in pkgutil.iter_modules(ahodge.__path__):
        module = importlib.import_module(f"ahodge.{info.name}")
        for attr, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)) and value.cache_info().maxsize:
                memos[f"{info.name}.{attr}"] = value
    return memos


def test_clearing_the_memos_empties_every_bounded_one():
    # a memo added later that clear_memos misses would carry one test's
    # state into the next
    run(RunConfig("builtin:fls"))
    run(RunConfig("builtin:fls"))
    memos = bounded_memos()
    assert any(memo.cache_info().currsize for memo in memos.values())
    clear_memos()
    assert {key: memo.cache_info().currsize for key, memo in memos.items()} == dict.fromkeys(
        memos, 0
    )
