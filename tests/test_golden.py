"""Byte-exact behaviour contract: every case of scripts/reproduce_tables.py,
the standalone torus manifest, the torus and iwasawa_std with a
non-diagonal Gram block, `fls` times a flat 2-torus (base rank 4) at c = 1
and at the lattice point c = 4*pi, two large lattice points of the `fls` family,
two `fls` points whose parameters carry pi in numerator and denominator, and
one lattice point left UNDETERMINED by a modes bound of 0 must render
exactly the text and JSON reports pinned under tests/golden/, with the
pinned exit code.  A case is (source, parameter overrides, other RunConfig
options).

To re-pin after a deliberate change of output, run
``PYTHONPATH=src python3 tests/test_golden.py`` and review the diff.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from ahodge.cli import RunConfig, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _reproduce_cases():
    path = ROOT / "scripts" / "reproduce_tables.py"
    spec = importlib.util.spec_from_file_location("reproduce_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.CASES)


CASES = [(source, overrides, {}) for source, overrides in _reproduce_cases()] + [
    (str(ROOT / "manifests" / "torus6.am"), {}, {}),
    (str(ROOT / "manifests" / "torus6_skew.am"), {}, {}),
    (str(ROOT / "manifests" / "iwasawa_std_skew.am"), {}, {}),
    (str(ROOT / "manifests" / "fls_t2.am"), {}, {}),
    (str(ROOT / "manifests" / "fls_t2.am"), {"c": "4*pi"}, {}),
    ("builtin:fls", {"c": "400*pi"}, {}),
    ("builtin:fls", {"c": "4000*pi"}, {}),
    ("builtin:fls", {"a": "pi + 1/2", "b": "-2*pi", "c": "-(1/2)*pi"}, {}),
    ("builtin:fls", {"a": "-2*pi", "b": "(1/2)/pi + 1", "c": "-pi"}, {}),
    ("builtin:fls", {"c": "4*pi"}, {"degrees": [2], "modes_bound": 0}),
]

# Exit code of every case: 0 when all spaces are EXACT, 2 when one is not.
# A modes bound of 0 bits leaves every mode search without an answer.
EXIT_CODES = {"fls_c4pi_p2_bound0": 2}


def case_name(source: str, overrides: dict, options: dict) -> str:
    stem = source[len("builtin:") :] if source.startswith("builtin:") else Path(source).stem
    for key, value in sorted(overrides.items()):
        value = value.replace("-", "m").replace("*", "").replace("/", "over")
        stem += f"_{key}{re.sub(r'[^A-Za-z0-9]', '', value)}"
    if "degrees" in options:
        stem += "_p" + "".join(map(str, options["degrees"]))
    if "modes_bound" in options:
        stem += f"_bound{options['modes_bound']}"
    return stem


def render(source: str, overrides: dict, options: dict) -> dict:
    """(rendered report, exit code) for each report format."""
    return {
        fmt: run(RunConfig(source, dict(overrides), report_format=fmt, **options))
        for fmt in ("text", "json")
    }


_SUFFIX = {"text": ".txt", "json": ".json"}


@pytest.mark.parametrize(
    "source, overrides, options", CASES, ids=[case_name(*case) for case in CASES]
)
def test_report_matches_golden(source, overrides, options):
    name = case_name(source, overrides, options)
    for fmt, (rendered, code) in render(source, overrides, options).items():
        expected = (GOLDEN / (name + _SUFFIX[fmt])).read_text(encoding="utf-8")
        assert rendered == expected, f"{name}{_SUFFIX[fmt]} differs from the golden report"
        assert code == EXIT_CODES.get(name, 0), f"{name}{_SUFFIX[fmt]} exit code"


def test_golden_names_are_distinct():
    assert len({case_name(*case) for case in CASES}) == len(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        name = case_name(*case)
        for fmt, (rendered, _code) in render(*case).items():
            (GOLDEN / (name + _SUFFIX[fmt])).write_text(rendered, encoding="utf-8")
            print("wrote", name + _SUFFIX[fmt])
