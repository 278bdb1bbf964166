"""Byte-exact behaviour contract: every case of scripts/reproduce_tables.py,
the standalone torus manifest, a large lattice point of the `fls` family and
one lattice point whose mode search is UNDETERMINED must render exactly the
text and JSON reports pinned under tests/golden/, with the pinned exit code.

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


CASES = _reproduce_cases() + [
    (str(ROOT / "manifests" / "torus6.am"), {}),
    ("builtin:fls", {"c": "400*pi"}),
    ("builtin:fls", {"c": "4000*pi"}),
]

# Exit code of every case: 0 when all spaces are EXACT, 2 when one is not.
# At c = 4000*pi the Cauchy root bound passes the default --modes-bound.
EXIT_CODES = {"fls_c4000pi": 2}


def case_name(source: str, overrides: dict) -> str:
    stem = source[len("builtin:") :] if source.startswith("builtin:") else Path(source).stem
    for key, value in sorted(overrides.items()):
        value = value.replace("-", "m").replace("*", "").replace("/", "over")
        stem += f"_{key}{re.sub(r'[^A-Za-z0-9]', '', value)}"
    return stem


def render(source: str, overrides: dict) -> dict:
    """(rendered report, exit code) for each report format."""
    return {
        fmt: run(RunConfig(source, dict(overrides), report_format=fmt))
        for fmt in ("text", "json")
    }


_SUFFIX = {"text": ".txt", "json": ".json"}


@pytest.mark.parametrize(
    "source, overrides", CASES, ids=[case_name(s, o) for s, o in CASES]
)
def test_report_matches_golden(source, overrides):
    name = case_name(source, overrides)
    for fmt, (rendered, code) in render(source, overrides).items():
        expected = (GOLDEN / (name + _SUFFIX[fmt])).read_text(encoding="utf-8")
        assert rendered == expected, f"{name}{_SUFFIX[fmt]} differs from the golden report"
        assert code == EXIT_CODES.get(name, 0), f"{name}{_SUFFIX[fmt]} exit code"


def test_golden_names_are_distinct():
    assert len({case_name(s, o) for s, o in CASES}) == len(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for source, overrides in CASES:
        name = case_name(source, overrides)
        for fmt, (rendered, _code) in render(source, overrides).items():
            (GOLDEN / (name + _SUFFIX[fmt])).write_text(rendered, encoding="utf-8")
            print("wrote", name + _SUFFIX[fmt])
