"""Golden CLI corpus: every recorded invocation gives the same bytes again.

`tests/golden/corpus.json` holds stdout, stderr and the exit code of each
invocation in `tests/golden/regenerate.py`, with and without `--json`.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from cuspgerms import cli
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


def test_table_reader_reads_every_recorded_command():
    # argparse reads the two records whose value starts with "-" (`--bound -1`)
    refused = [r["argv"] for r in CORPUS if cli._read_argv(r["argv"]) is None]
    assert refused == [flags + ["semigroup", "info", "--p", "3", "--q", "5", "--bound", "-1"]
                       for flags in ([], ["--json"])]
    for record in CORPUS:
        if record["argv"] not in refused:
            assert vars(cli._read_argv(record["argv"])) == vars(
                cli.build_parser().parse_args(record["argv"]))
