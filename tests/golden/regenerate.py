"""Regenerate the golden CLI corpus, `corpus.json` next to this script.

Each invocation below runs through `cuspgerms.cli.main` in-process, once
without and once with `--json`; its stdout, stderr and exit code are
recorded.  `tests/test_golden.py` replays the corpus and requires the same
three values.  Regenerate only when a report is meant to change, and say
why in CHANGES.md:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from cuspgerms.cli import main

CORPUS = Path(__file__).with_name("corpus.json")


def analyze(p: int, q: int, germ: str | None = None) -> list[str]:
    argv = ["curve", "analyze", "--p", str(p), "--q", str(q)]
    return argv if germ is None else argv + ["--germ", germ]


INVOCATIONS: list[list[str]] = [
    # monomials, the default germ t included
    analyze(2, 3),
    analyze(3, 4),
    analyze(5, 7, "t^3"),
    analyze(2, 5, "t^2"),
    analyze(3, 4, "3*t^4"),
    analyze(101, 102),
    # vanishing germs
    analyze(3, 4, "t^3 + t^5"),
    analyze(5, 7, "t + t^2"),
    analyze(11, 12, "t + t^2"),
    analyze(21, 22, "t + t^2"),
    analyze(41, 42, "t + t^2"),
    analyze(2, 3, "t^2 + 1/2*t^3 + O(t^9)"),
    analyze(5, 7, "t + O(t^30)"),
    analyze(5, 7, "t + t^5 + O(t^6)"),
    analyze(7, 9, "t^2 - 2*t^3 + t^4"),
    analyze(5, 7, "t - t^2 + O(t^12)"),
    # undecided powers above the last certain failure, with and without one
    analyze(3, 5, "t^3 + O(t^4)"),
    analyze(5, 7, "t^5 + t^6 + O(t^8)"),
    # tail-only germs
    analyze(2, 3, "O(t^3)"),
    analyze(5, 7, "O(t^30)"),
    analyze(5, 7, "O(t^5)"),
    analyze(3, 4, "O(t^-2)"),
    # units
    analyze(3, 4, "1 + t + O(t^9)"),
    analyze(5, 7, "1 + t^5 + t^7"),
    analyze(2, 3, "1 + O(t^1)"),
    analyze(31, 32, "1 + t^31 + t^33 + O(t^2000)"),
    # Gaussian coefficients
    analyze(3, 4, "(1/2,-3)*t^2 + (0,1)*t^3 + O(t^12)"),
    analyze(5, 7, "(1,1)*t + (2,-1)*t^2"),
    analyze(4, 5, "(0,1)*t^4 + O(t^7)"),
    # zero, negative exponent and domain errors
    analyze(2, 3, "0"),
    analyze(2, 3, "t^-2"),
    analyze(2, 3, "t^5 + O(t^3)"),
    analyze(4, 6),
    analyze(2, 3, "1/0*t"),
    analyze(2, 3, "2*"),
    # the other commands
    ["rado", "witness", "--max-k", "12", "--n", "5"],
    ["rado", "witness", "--max-k", "101", "--n", "100"],
    ["rado", "witness", "--max-k", "5", "--n", "7"],
    ["theorem1", "bound", "--max-k", "12", "--region", "5"],
    ["theorem1", "bound", "--max-k", "12", "--region", "3", "--n", "2"],
    ["semigroup", "info", "--p", "3", "--q", "5"],
    ["semigroup", "info", "--p", "5", "--q", "7", "--bound", "40"],
    ["semigroup", "info", "--p", "4", "--q", "6"],
    ["semigroup", "info", "--p", "3", "--q", "5", "--bound", "-1"],
    ["semigroup", "info", "--p", "3", "--q", "5", "--bound", "1000001"],
    ["curve", "multiplier", "--p", "2", "--q", "3", "--a", "1", "--b", "0"],
    ["curve", "multiplier", "--p", "5", "--q", "7", "--a", "2", "--b", "3"],
    ["nagata", "demo", "--g", "inv", "--max-pow", "6"],
    ["nagata", "demo", "--g", "expinv", "--max-pow", "4"],
    ["nagata", "demo", "--g", "inv", "--max-pow", "0"],
]


def run(argv: list[str]) -> dict:
    """One in-process `cli.main` call: its argv, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def regenerate() -> int:
    records = [run(flags + argv) for argv in INVOCATIONS for flags in ([], ["--json"])]
    CORPUS.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} invocations to {CORPUS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
