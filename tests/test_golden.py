"""Golden CLI corpus: every recorded invocation gives the same bytes again.

`tests/golden/corpus.json` holds stdout, stderr and the exit code of each
invocation in `tests/golden/regenerate.py`, with and without `--json`.
"""

import json
from pathlib import Path

import pytest

from cuspgerms.cli import main

CORPUS = json.loads((Path(__file__).parent / "golden" / "corpus.json").read_text())


@pytest.mark.parametrize("record", CORPUS, ids=[" ".join(r["argv"]) for r in CORPUS])
def test_golden_invocation(capsys, record):
    code = main(list(record["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        record["code"], record["stdout"], record["stderr"])
