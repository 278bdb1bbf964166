#!/usr/bin/env python3
"""Print one transcript of `ahodge` over a fixed list of argument sets: per
set, the arguments, the exit code, standard output and standard error.

Usage:
    PYTHONPATH=src python3 scripts/sweep_transcript.py          # one process
    PYTHONPATH=src python3 scripts/sweep_transcript.py --fresh  # one per set

Without --fresh every set runs in this process through `ahodge.cli.main`, so
later sets find the expressions, certificates and flag skeletons that
earlier ones kept; with --fresh each set runs as `python -m ahodge.cli` in a
new process.  The two transcripts must be identical.
"""

import contextlib
import io
import subprocess
import sys

from ahodge.builtins import builtin_names
from ahodge.cli import main

# a pi_generic point of fls (perfbench/workloads.py, seed 1)
PI_POINT = ["--param", "a=-(1/2)/pi", "--param", "b=pi", "--param", "c=-2*pi + 1"]

ARGUMENT_SETS = (
    [["run", f"builtin:{name}"] for name in builtin_names()]
    + [
        ["run", "builtin:fls", *PI_POINT],
        ["run", "builtin:fls", *PI_POINT, "--report", "json"],
        ["run", "builtin:fls", "--param", "a0=0"],
        ["run", "builtin:fls", "--param", "a=1/(b)"],
        ["run", "builtin:fls"],
    ]
)


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def fresh(argv):
    done = subprocess.run(
        [sys.executable, "-m", "ahodge.cli", *argv],
        capture_output=True,
        text=True,
        check=False,
    )
    return done.returncode, done.stdout, done.stderr


def transcript(runner):
    for argv in ARGUMENT_SETS:
        code, out, err = runner(argv)
        print("=" * 72)
        print("args:", *argv)
        print("exit:", code)
        print(out, end="")
        print("stderr:", err.rstrip("\n"))


if __name__ == "__main__":
    transcript(fresh if sys.argv[1:] == ["--fresh"] else in_process)
