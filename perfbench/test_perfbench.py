"""Smoke tests of the benchmark itself, at tiny sizes.

    python -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so one run takes about a second."""
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    w = workloads.WORKLOADS
    monkeypatch.setattr(w["region_power"], "rounds", 2)
    monkeypatch.setattr(w["region_power"], "sympy_sample", 2)
    monkeypatch.setattr(w["region_power"], "trace_ops", 66)
    monkeypatch.setattr(w["cusp_scan"], "max_gen", 5)
    monkeypatch.setattr(w["cusp_scan"], "tail_levels", (8, 12))
    monkeypatch.setattr(w["cusp_scan"], "rounds", 1)
    monkeypatch.setattr(w["cusp_scan"], "trace_ops", 10)
    monkeypatch.setattr(w["cli_mix"], "mix", {k: 1 for k in w["cli_mix"].mix})
    monkeypatch.setattr(w["cli_mix"], "rounds", 1)
    monkeypatch.setattr(w["cli_mix"], "trace_ops", 7)


def result_line(capsys, workload, trace, seed=5):
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(tiny, capsys, workload, trace):
    result = result_line(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_identical_seeds_give_identical_inputs(tiny, name):
    workload = workloads.WORKLOADS[name]
    first = run.input_hash(workload.generate(Random(7)))
    assert first == run.input_hash(workload.generate(Random(7)))
    assert first != run.input_hash(workload.generate(Random(8)))


@pytest.mark.parametrize("workload", ["region_power", "cusp_scan"])
def test_a_wrong_membership_answer_is_counted_as_failure(tiny, capsys, monkeypatch, workload):
    run.load_library()
    from cuspgerms.semigroup import NumericalSemigroup

    contains = NumericalSemigroup.contains

    def flipped(self, n):
        # the first generator is always a member; claim it is not
        return not contains(self, n) if n == self.p else contains(self, n)

    monkeypatch.setattr(NumericalSemigroup, "contains", flipped)
    result = result_line(capsys, workload, 0)
    assert result["failed"] > 0
    assert result["correct"] is False
