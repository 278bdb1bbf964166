"""Compare a JSON report of `ahodge run` with the known-answer sheet.

Only what the report claims exactly is compared: a space whose status is
not EXACT is a failure to answer, counted apart, never a wrong answer.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

SHEET_PATH = Path(__file__).resolve().parent / "known_answers.json"
THEORIES = ("dbar", "deltabar", "dol")
EXACT = "EXACT"

_MODE_PREFIX = re.compile(r"^e\^\{2 pi i \(([^)]*)\)\}\*")
_MODE_TERM = re.compile(r"^(?:(\d+)\*)?([A-Za-z_][A-Za-z0-9_]*)$")


def load_sheet(path: Path = SHEET_PATH) -> dict:
    sheet = json.loads(path.read_text(encoding="utf-8"))
    sheet.pop("_about", None)
    return sheet


def parse_mode(basis_text: str, coords) -> tuple:
    """The Fourier mode of a single-mode basis element as rendered by the
    report, e.g. `e^{2 pi i (-100*x)}*(...)` gives (-100, 0) over (x, t).
    An invariant element gives the zero mode."""
    match = _MODE_PREFIX.match(basis_text)
    mode = dict.fromkeys(coords, 0)
    if match is None:
        return tuple(mode.values())
    body = match.group(1).replace(" - ", " + -")
    for term in body.split(" + "):
        sign = -1 if term.startswith("-") else 1
        parsed = _MODE_TERM.match(term.lstrip("-"))
        if parsed is None or parsed.group(2) not in mode:
            raise ValueError(f"unreadable mode label in {basis_text!r}")
        mode[parsed.group(2)] += sign * int(parsed.group(1) or 1)
    return tuple(mode.values())


def check_report(report: dict, expect: str, k: int | None, sheet: dict) -> list:
    """Mismatches between the exact claims of `report` and the sheet entry."""
    want = sheet[expect]
    out = []
    status = report["space_status"]
    for theory in THEORIES:
        for p, dim in enumerate(want[theory]):
            if status[theory][str(p)] != EXACT:
                continue
            got = report["tables"][theory][str(p)]
            if got != dim:
                out.append(f"{theory} p={p}: {got} != {dim}")
    flags = report["flags"]
    if flags["almost_kahler"] != want["almost_kahler"]:
        out.append(f"almost_kahler: {flags['almost_kahler']} != {want['almost_kahler']}")
    if want["almost_kahler"] and flags["ak_identity"] is not True:
        out.append(f"ak_identity: {flags['ak_identity']} on an almost-Kahler metric")
    if status["dbar"]["1"] == EXACT:
        verdict = report["obstruction"]
        if verdict["verdict"] != want["obstruction"]:
            out.append(f"obstruction: {verdict['verdict']} != {want['obstruction']}")
        witness = verdict["witness"]
        if witness is not None:
            witness = witness.replace("{", "").replace("}", "")
        if witness != want["witness"]:
            out.append(f"witness: {witness} != {want['witness']}")
    modes = want.get("lattice_modes")
    if modes is not None and status["dbar"][str(modes["p"])] == EXACT:
        coords = modes["coords"]
        expected = sorted([(k,) + (0,) * (len(coords) - 1), (-k,) + (0,) * (len(coords) - 1)])
        got = sorted(parse_mode(b, coords) for b in report["bases"]["dbar"][str(modes["p"])])
        if got != expected:
            out.append(f"dbar p={modes['p']} modes: {got} != {expected}")
    all_exact = all(s == EXACT for theory in THEORIES for s in status[theory].values())
    if (report["status"] == EXACT) != all_exact:
        out.append(f"status {report['status']} disagrees with the space statuses")
    return out
