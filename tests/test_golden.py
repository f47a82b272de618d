"""Golden CLI corpus: every recorded invocation gives the same bytes again.

`tests/golden/corpus.json` holds stdout, stderr and the exit code of each
invocation in `tests/golden/regenerate.py`, with and without `--json`.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from cuspgerms.cli import main

GOLDEN = Path(__file__).parent / "golden"
CORPUS = json.loads((GOLDEN / "corpus.json").read_text())


def test_corpus_records_every_invocation():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    regenerate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regenerate)
    assert [r["argv"] for r in CORPUS] == [
        flags + argv for argv in regenerate.INVOCATIONS for flags in ([], ["--json"])]


@pytest.mark.parametrize("record", CORPUS, ids=[" ".join(r["argv"]) for r in CORPUS])
def test_golden_invocation(capsys, record):
    code = main(list(record["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        record["code"], record["stdout"], record["stderr"])
