import json
from collections import Counter

import pytest

from ahodge import fourier
from ahodge.builtins import BUILTINS
from ahodge.cli import RunConfig, check, compute_report, main, report_to_dict, run
from util import D2_COMPONENTS, NON_REAL, TOY


def _table(report_dict, theory):
    return {int(p): v for p, v in report_dict["tables"][theory].items()}


def test_run_family_mode_branch():
    config = RunConfig("builtin:fls", {"a": "1", "b": "0", "c": "4*pi"})
    report = compute_report(config)
    data = report_to_dict(report)
    assert _table(data, "dbar") == {0: 1, 1: 1, 2: 2, 3: 1}
    assert _table(data, "deltabar") == {0: 1, 1: 1, 2: 0, 3: 0}
    assert _table(data, "dol") == {0: 1, 1: 1, 2: 0, 3: 0}
    assert data["status"] == "EXACT"
    assert data["flags"]["almost_kahler"] is True
    assert data["flags"]["ak_identity"] is True
    assert data["obstruction"]["verdict"] == "Inconclusive"


def test_run_family_generic_branch():
    config = RunConfig("builtin:fls", {"a": "1", "b": "0", "c": "1"})
    data = report_to_dict(compute_report(config))
    assert _table(data, "dbar") == {0: 1, 1: 1, 2: 0, 3: 1}
    assert _table(data, "deltabar") == {0: 1, 1: 1, 2: 0, 3: 0}


def test_run_iwasawa_ak_tables():
    data = report_to_dict(compute_report(RunConfig("builtin:iwasawa_ak")))
    assert _table(data, "dbar") == {0: 1, 1: 1, 2: 1, 3: 1}
    assert _table(data, "deltabar") == {0: 1, 1: 1, 2: 1, 3: 0}
    assert _table(data, "dol") == {0: 1, 1: 1, 2: 1, 3: 0}
    assert data["obstruction"]["verdict"] == "Inconclusive"


def test_run_obstructed_builtin():
    data = report_to_dict(compute_report(RunConfig("builtin:iwasawa_std")))
    assert data["obstruction"]["verdict"] == "Obstructed"
    assert data["obstruction"]["witness"] == "psi^{3}"
    assert data["flags"]["almost_kahler"] is False


def test_reports_are_deterministic():
    config = RunConfig(
        "builtin:fls", {"c": "4*pi"}, report_format="json", degrees=[1, 2]
    )
    out1, code1 = run(config)
    out2, code2 = run(config)
    assert out1 == out2 and code1 == code2 == 0
    text1, _ = run(RunConfig("builtin:fls", {"c": "4*pi"}))
    text2, _ = run(RunConfig("builtin:fls", {"c": "4*pi"}))
    assert text1 == text2


def test_text_and_json_agree_on_numbers():
    config = RunConfig("builtin:fls", {"c": "4*pi"})
    report = compute_report(config)
    data = report_to_dict(report)
    text, _ = run(config)
    for p in range(4):
        dims = [str(data["tables"][t][str(p)]) for t in ("dbar", "deltabar", "dol")]
        row = next(line for line in text.splitlines() if line.startswith(f"  {p} |"))
        cells = [cell.strip() for cell in row.split("|")]
        assert cells[1:4] == dims


def test_degree_subset_and_exit_codes(tmp_path):
    out, code = run(RunConfig("builtin:fls", degrees=[2]))
    assert code == 0 and " 2 |" in out
    out, code = run(
        RunConfig("builtin:fls", {"c": "4*pi"}, degrees=[2], modes_bound=0)
    )
    assert code == 2
    assert "UNDETERMINED" in out


def test_main_entrypoint_and_errors(tmp_path, capsys):
    assert main(["run", "builtin:fls", "--c", "4*pi", "--p", "1,2"]) == 0
    capsys.readouterr()
    empty = tmp_path / "empty.am"
    empty.write_text("")
    assert main(["run", str(empty)]) == 1
    err = capsys.readouterr().err
    assert "error" in err
    assert main(["run", "builtin:nope"]) == 1
    capsys.readouterr()
    assert main(["run", "builtin:fls", "--c", "4*pi", "--report", "json"]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["tables"]["dbar"]["2"] == 2


def test_sample_manifest_file():
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "manifests" / "torus6.am"
    data = report_to_dict(compute_report(RunConfig(str(path))))
    assert _table(data, "dbar") == {0: 1, 1: 3, 2: 3, 3: 1}
    assert _table(data, "deltabar") == {0: 1, 1: 3, 2: 3, 3: 1}
    assert _table(data, "dol") == {0: 1, 1: 3, 2: 3, 3: 1}
    assert data["flags"]["integrable"] is True
    assert data["flags"]["almost_kahler"] is True
    assert data["flags"]["ak_identity"] is True
    assert data["obstruction"]["verdict"] == "Inconclusive"


def test_check_subcommand(tmp_path):
    out, code = check("builtin:fls")
    assert code == 0
    assert out.count("relation") == 7
    bad = tmp_path / "bad.am"
    bad.write_text(BUILTINS["fls"].replace("d e5 = -e15", "d e5 = e15"))
    with pytest.raises(Exception):
        check(str(bad))
    assert main(["check", str(bad)]) == 1


def test_check_lists_the_seven_relations_of_the_oracle():
    out, code = check("builtin:iwasawa_std")
    assert code == 0
    relations = [line for line in out.splitlines() if line.startswith("relation ")]
    assert relations == [f"relation {name}: ok" for name, _pairs in D2_COMPONENTS]


CHECK_TORUS6 = """\
manifold: torus6
d^2 = 0: ok
relation mu mu: ok
relation mu del + del mu: ok
relation del del + mu dbar + dbar mu: ok
relation del dbar + dbar del + mu mubar + mubar mu: ok
relation dbar dbar + mubar del + del mubar: ok
relation mubar dbar + dbar mubar: ok
relation mubar mubar: ok
result: pass
"""


def _torus6_with_metric(tmp_path, metric):
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "manifests" / "torus6.am").read_text()
    path = tmp_path / "torus6.am"
    path.write_text(text.replace("omega = e12 + e34 + e56", metric))
    return str(path)


def test_check_builds_the_declared_metric(tmp_path, capsys):
    good = _torus6_with_metric(tmp_path, "omega = e12 + e34 + e56")
    assert main(["check", good]) == 0
    assert capsys.readouterr().out == CHECK_TORUS6
    bare = _torus6_with_metric(tmp_path, "")
    assert main(["check", bare]) == 0
    capsys.readouterr()
    bad = _torus6_with_metric(tmp_path, "gram = [[-2, 0, 0], [0, 2, 0], [0, 0, 2]]")
    assert main(["run", bad]) == 1
    message = capsys.readouterr().err
    assert "not positive" in message
    assert main(["check", bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


@pytest.mark.parametrize(
    "metric, what",
    [("omega = e12", "omega"), ("gram = [[1, 0, 0], [0, 0, 0], [0, 0, 1]]", "gram")],
)
def test_a_singular_metric_names_the_section(tmp_path, capsys, metric, what):
    source = _torus6_with_metric(tmp_path, metric)
    for command in ("run", "check"):
        assert main([command, source]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [metric]: {what} is degenerate (matrix is singular)\n"


def test_modes_bound_flag_threads_through(capsys):
    code = main(
        ["run", "builtin:fls", "--c", "4*pi", "--p", "2", "--modes-bound", "0"]
    )
    assert code == 2


def test_negative_modes_bound_is_bad_input(capsys):
    argv = ["run", "builtin:fls", "--c", "4*pi", "--p", "2", "--modes-bound", "-3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: modes bound must be a nonnegative number of bits, got -3\n"
    )


def test_run_config_rejects_a_negative_modes_bound():
    with pytest.raises(ValueError, match="nonnegative"):
        RunConfig("builtin:fls", modes_bound=-1)
    assert RunConfig("builtin:fls", modes_bound=0).modes_bound == 0


def test_singular_coframe_names_the_section_and_the_parameters(capsys):
    assert main(["run", "builtin:fls", "--a", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: [acs]: phi1..phi3 and their conjugates do not span the "
        "complexified coframe (matrix is singular) at a = 0, a0 = 1, b = 0, c = 1\n"
    )


@pytest.mark.parametrize(
    "value, reason",
    [("1/0", "division by zero"), ("x+1", "unknown name 'x'")],
)
def test_unparsable_override_names_the_parameter(capsys, value, reason):
    assert main(["run", "builtin:fls", "--b", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: override b = {value}: {reason}\n"


def test_reports_byte_identical_across_processes():
    import subprocess
    import sys

    cmd = [
        sys.executable,
        "-m",
        "ahodge.cli",
        "run",
        "builtin:fls",
        "--c",
        "4*pi",
        "--report",
        "json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout


def test_dbar_space_computed_once_per_degree(monkeypatch):
    calls = Counter()
    original = fourier.harmonic_basis_dbar

    def counting(p, *args, **kwargs):
        calls[p] += 1
        return original(p, *args, **kwargs)

    monkeypatch.setattr(fourier, "harmonic_basis_dbar", counting)
    compute_report(RunConfig("builtin:iwasawa_std"))
    assert calls == {0: 1, 1: 1, 2: 1, 3: 1}


def test_repeated_degree_is_reported_and_computed_once(monkeypatch, capsys):
    assert main(["run", "builtin:iwasawa_std", "--p", "1"]) == 0
    once = capsys.readouterr().out
    calls = Counter()
    original = fourier.harmonic_basis_dbar

    def counting(p, *args, **kwargs):
        calls[p] += 1
        return original(p, *args, **kwargs)

    monkeypatch.setattr(fourier, "harmonic_basis_dbar", counting)
    assert main(["run", "builtin:iwasawa_std", "--p", "1,1"]) == 0
    assert capsys.readouterr().out == once
    assert calls == {1: 1}


def test_unknown_builtin_message_is_unquoted(capsys):
    assert main(["run", "builtin:nosuch"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown builtin 'nosuch'")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "builtin:fls", "--report", "xml"],
        ["run", "builtin:fls", "--modes-bound", "many"],
        ["run"],
        ["frobnicate"],
    ],
)
def test_usage_errors_exit_like_bad_input(argv, capsys):
    # exit code 2 is reserved for UNDETERMINED reports
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_input_and_internal_faults_exit_apart(tmp_path, monkeypatch, capsys):
    assert main(["run", str(tmp_path / "missing.am")]) == 1
    assert capsys.readouterr().err.startswith("error: ")

    def broken(config):
        raise KeyError("e7")

    monkeypatch.setattr("ahodge.cli.compute_report", broken)
    assert main(["run", "builtin:fls"]) == 3
    assert capsys.readouterr().err == "internal error: KeyError: 'e7'\n"


@pytest.mark.parametrize("degrees", ["one", ",", " ", "1,x"])
def test_an_empty_or_malformed_degree_list_is_a_usage_error(degrees, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "builtin:fls", "--p", degrees])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --p: expected comma-separated integers, got {degrees!r}" in captured.err


def test_run_config_rejects_an_empty_degree_list():
    with pytest.raises(ValueError, match="at least one degree"):
        RunConfig("builtin:fls", degrees=[])


def test_param_overrides_a0_like_a_manifest_edit(tmp_path, capsys):
    path = tmp_path / "fls.am"
    path.write_text(BUILTINS["fls"].replace("a0 = 1\n", "a0 = 2\n"))
    assert main(["run", str(path), "--report", "json"]) == 0
    edited = capsys.readouterr().out
    assert main(["run", "builtin:fls", "--param", "a0=2", "--report", "json"]) == 0
    overridden = capsys.readouterr().out
    assert overridden == edited
    assert json.loads(overridden)["manifold"]["params"]["a0"] == "2"
    # --param takes the --a/--b/--c names too
    assert main(["run", "builtin:fls", "--param", "c=4*pi", "--p", "2"]) == 0
    by_param = capsys.readouterr().out
    assert main(["run", "builtin:fls", "--c", "4*pi", "--p", "2"]) == 0
    assert capsys.readouterr().out == by_param


def test_param_with_an_unknown_name_is_bad_input(capsys):
    assert main(["run", "builtin:fls", "--param", "zz=1"]) == 1
    assert capsys.readouterr().err == "error: override for unknown parameter 'zz'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--param", "a0=2", "--param", "a0=3"],
        ["--param", "a=2", "--a", "3"],
    ],
)
def test_a_parameter_overridden_twice_is_bad_input(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "builtin:fls", *argv])
    assert exc.value.code == 1
    name = argv[1].split("=")[0]
    assert f"error: parameter {name} is overridden twice" in capsys.readouterr().err


@pytest.mark.parametrize("param", ["a0", "=2", "a0=", "2a=1"])
def test_param_needs_a_name_and_an_expression(param, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "builtin:fls", "--param", param])
    assert exc.value.code == 1
    assert f"argument --param: expected NAME=EXPR, got {param!r}" in capsys.readouterr().err


def test_a_repeated_parameter_is_bad_input(tmp_path, capsys):
    # the repeat would otherwise load fls at a = 5
    path = tmp_path / "fls.am"
    path.write_text(BUILTINS["fls"].replace("a = 1\n", "a = 1\na = 5\n"))
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == "error: line 8: parameter a is given twice\n"


def test_a_negative_expression_needs_the_equals_form(capsys):
    # argparse takes "-1/pi" for an option unless it is joined to its flag
    with pytest.raises(SystemExit) as exc:
        main(["run", "builtin:fls", "--b", "-1/pi"])
    assert exc.value.code == 1
    assert "argument --b: expected one argument" in capsys.readouterr().err
    assert main(["run", "builtin:fls", "--b=-1/pi", "--p", "1"]) == 0
    assert "b = (-1)/(pi)" in capsys.readouterr().out


def test_a_run_never_imports_mpmath():
    import subprocess
    import sys

    script = (
        "import sys, ahodge.cli; "
        "ahodge.cli.run(ahodge.cli.RunConfig('builtin:fls')); "
        "assert 'mpmath' not in sys.modules, 'mpmath was imported'"
    )
    subprocess.run([sys.executable, "-c", script], check=True)


NON_UNIMODULAR = """\
[manifold]
name = nonuni
dim = 4

[coframe]
d e1 = 0
d e2 = e12
d e3 = 0
d e4 = 0

[acs]
phi1 = e1 + i*e2
phi2 = e3 + i*e4

[metric]
omega = e12 + e34
"""

NON_UNIMODULAR_COMPLEX = """\
[manifold]
name = nonuni
dim = 4

[complex_coframe]
d phi1 = phi[1 1b]
d phi2 = 0

[metric]
gram = [[2, 0], [0, 2]]
"""


@pytest.mark.parametrize(
    "text, section, word",
    [
        (NON_UNIMODULAR, "coframe", "d phi^{12 2b}"),
        (NON_UNIMODULAR_COMPLEX, "complex_coframe", "d phi^{12 2b}"),
    ],
    ids=["coframe", "complex_coframe"],
)
def test_a_non_unimodular_algebra_is_bad_input(tmp_path, capsys, text, section, word):
    # no lattice, so Gram adjoints are not L2 adjoints: the report would
    # claim almost_kahler = true with ak_identity = false
    path = tmp_path / "nonuni.am"
    path.write_text(text)
    for command in ("run", "check"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: [{section}]: the structure equations are not unimodular: {word} = ")


D2_FAILS_COMPLEX = """\
[manifold]
name = d2fails
dim = 6

[complex_coframe]
d phi1 = 0
d phi2 = phi[2 3b]
d phi3 = phi[1 2]

[metric]
gram = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
"""


@pytest.mark.parametrize(
    "text, message",
    [
        (
            TOY.replace("{DE4}", "e34"),
            "d^2 e4 = -(1/4)*phi^{12 1b} - (1/4)*phi^{1 1b2b} != 0",
        ),
        (
            BUILTINS["fls"].replace("d e5 = -e15", "d e5 = e15"),
            "d^2 e3 = (1/2)*phi^{13 1b} + (1/2)*phi^{1 1b3b} != 0",
        ),
        # the residue of the first generator the manifest declares, not of
        # the implicit real coframe element e3 = Re phi2
        (D2_FAILS_COMPLEX, "[complex_coframe]: d^2 phi2 = -phi^{2 1b2b} != 0"),
        # the residue is written in the manifest's symbol
        (
            BUILTINS["fls_nonak"].replace("d e5 = -e15", "d e5 = e15"),
            "d^2 e3 = ((1/2)*i)*Phi^{13 1b} - ((1/2)*i)*Phi^{1 1b3b} != 0",
        ),
    ],
    ids=["toy", "fls", "complex_coframe", "symbol"],
)
def test_a_nonzero_d_squared_names_a_declared_coframe_element(tmp_path, capsys, text, message):
    path = tmp_path / "d2.am"
    path.write_text(text)
    for command in ("run", "check"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_a_non_real_structure_equation_is_bad_input(tmp_path, capsys):
    declared, by_param = tmp_path / "declared.am", tmp_path / "by_param.am"
    declared.write_text(NON_REAL)
    by_param.write_text(NON_REAL.replace("i*e12", "k*e12"))
    for argv in (
        ["run", str(declared)],
        ["check", str(declared)],
        ["run", str(by_param), "--param", "k=i"],
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 12: d e3 is not a real form\n"


MIXED_DEGREE_COMPLEX = """
[manifold]
name = mixed
dim = 6

[complex_coframe]
d phi1 = 0
d phi2 = 0
d phi3 = -phi12 + phi123
"""


def _mixed_degree_real():
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "manifests" / "torus6.am").read_text()
    return text.replace("d e6 = 0", "d e6 = e1 + e12")


@pytest.mark.parametrize(
    "text",
    [MIXED_DEGREE_COMPLEX, _mixed_degree_real()],
    ids=["complex_coframe", "coframe"],
)
def test_a_structure_equation_of_mixed_degree_is_bad_input(tmp_path, capsys, text):
    # Form.degree() is None for a mix of degrees as for the zero form; a
    # mixed d phi3 once loaded and ended as an internal error
    path = tmp_path / "mixed.am"
    path.write_text(text)
    for command in ("run", "check"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: d phi3 is not a 2-form\n"


def test_without_a_fiber_span_the_fiber_rule_certifies_nothing(tmp_path, capsys):
    # with no frames the fiber rule's premise holds vacuously; promoting on
    # it would report dbar h^{1,0} = 1 and h^{2,0} = 0 as EXACT
    from ahodge.manifold import load_spec
    from ahodge.pdesolve import build_dbar_system, reduce

    text = BUILTINS["fls"].replace("fiber_span = [V2, V3]\n", "")
    assert text != BUILTINS["fls"]
    spec = load_spec(text)
    for p in (1, 2):
        rules = {promo.rule for promo in reduce(build_dbar_system(p, spec), spec).promotions}
        assert "fiber_maximum_principle" not in rules, p
    path = tmp_path / "fls.am"
    path.write_text(text)
    assert main(["run", str(path), "--p", "1,2", "--report", "json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["space_status"]["dbar"] == {"1": "UNDETERMINED", "2": "UNDETERMINED"}
    assert data["tables"]["dbar"] == {"1": None, "2": None}
