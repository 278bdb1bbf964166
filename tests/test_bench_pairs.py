"""The summary arithmetic of scripts/bench_pairs.py on fixed runs, with no
benchmark run and no subprocess."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = {
    "end_to_end": [
        {"name": "pass_s", "better": "lower", "bound": 0.2},
        {"name": "exact_ratio", "better": "higher", "bound": 0.02},
    ],
    "per_layer": [{"name": "fourier.modes_found", "better": "higher"}],
}


def test_quartiles_of_five_values_and_of_one():
    assert bench_pairs.quartiles([5, 1, 4, 2, 3]) == {"q1": 1.5, "median": 3, "q3": 4.5}
    assert bench_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_summary_pairs_ratios_wins_and_bounds():
    parent = [{"pass_s": p, "exact_ratio": 1.0, "fourier.modes_found": 2, "other": 1} for p in (10, 20, 40, 10)]
    change = [{"pass_s": c, "exact_ratio": 0.5, "fourier.modes_found": 3, "other": 2} for c in (9, 18, 44, 5)]
    out = bench_pairs.summarize(parent, change, SPEC)
    # ratios 0.9, 0.9, 1.1, 0.5: median 0.9; three of four runs are faster
    assert out["pass_s"]["median_ratio"] == pytest.approx(0.9)
    assert out["pass_s"]["wins"] == 3 and out["pass_s"]["pairs"] == 4
    assert out["pass_s"]["within_bound"] is True and out["pass_s"]["bound"] == 0.2
    assert out["pass_s"]["parent"] == {"q1": 10, "median": 15, "q3": 35}
    assert out["pass_s"]["change"] == {"q1": 6.0, "median": 13.5, "q3": 37.5}
    # higher is better: a halved ratio loses every pair and breaks its bound
    assert out["exact_ratio"]["wins"] == 0 and out["exact_ratio"]["within_bound"] is False
    assert out["fourier.modes_found"]["wins"] == 4 and "bound" not in out["fourier.modes_found"]
    # a metric BENCHMARK.json does not declare has no direction, so no wins
    assert "wins" not in out["other"] and out["other"]["median_ratio"] == 2


def test_a_zero_parent_value_gives_no_ratio():
    out = bench_pairs.summarize([{"pass_s": 0}], [{"pass_s": 1}], SPEC)
    assert out["pass_s"]["median_ratio"] is None and "within_bound" not in out["pass_s"]
    assert out["pass_s"]["wins"] == 0


def test_seed_ranges():
    assert bench_pairs.seeds_of("31-34") == [31, 32, 33, 34]
    assert bench_pairs.seeds_of("40") == [40]
