#!/usr/bin/env python3
"""cuspgerms benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload region_power --seed 1 --seconds 20 --trace 0

With --trace 0 it measures end-to-end metrics (set-up time, throughput,
latency median and 90th percentile, peak RSS) for --seconds of work, in
whole rounds of the workload's mix.  With --trace 1 it replays a fixed
prefix of the same inputs twice in-process, untraced and then traced, and
reports per-layer counts and self times plus the tracing overhead; the spans
go to perfbench/out/.  Every answer is checked against an oracle that does
not use the library's arithmetic.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import reference
from tracer import Tracer
from workloads import WORKLOADS, CliWorkload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 9
WARMUP_OPS = 5
MIN_OPS = 100  # so that at least ten latencies lie beyond the 90th percentile
SLICE_S = 0.25  # reference kernel samples at least this often
PROCESS_SLICE_S = 1.0  # the same for workloads of whole processes, whose samples cost more

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "semigroup.contains_calls": "count",
    "semigroup.contains_s": "s",
    "germ.parse_calls": "count",
    "germ.parse_s": "s",
    "germ.mul_calls": "count",
    "germ.pow_calls": "count",
    "germ.add_calls": "count",
    "germ.mul_term_pairs": "count",
    "germ.terms_out": "count",
    "germ.peak_terms": "count",
    "germ.peak_coeff_bits": "bit",
    "germ.self_s": "s",
    "curve.decide_calls": "count",
    "curve.decide_yes": "count",
    "curve.decide_no": "count",
    "curve.decide_unknown": "count",
    "curve.scan_calls": "count",
    "curve.scan_s": "s",
    "curve.scan_muls_per_answer": "count",
    "curve.dead_term_ratio": "ratio",
    "curve.self_s": "s",
    "surgery.build_calls": "count",
    "surgery.build_s": "s",
    "surgery.validate_sites": "count",
    "surgery.witness_calls": "count",
    "surgery.site_decisions": "count",
    "surgery.check_power_s": "s",
    "surgery.self_s": "s",
    "nagata.pow_calls": "count",
    "nagata.self_s": "s",
    "cli.main_calls": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_ratio": "ratio",
}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_library():
    if not (SRC / "cuspgerms" / "__init__.py").is_file():
        sys.exit(f"error: no cuspgerms sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cuspgerms
    import cuspgerms.cli  # noqa: F401  (cli.main is called through the package)

    if Path(cuspgerms.__file__).resolve().parent != SRC / "cuspgerms":
        sys.exit(f"error: imported cuspgerms from {cuspgerms.__file__}, not from {SRC}")
    return cuspgerms


def measure_setup(code: str) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import the package and build the
    workload's fixed objects, one after the other: raw and scaled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw = []
    scaler = reference.Scaler(in_process=False)
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        raw.append(time.perf_counter() - t0)
        scaler.mark()
    return raw, [t * scaler.factor(j) for j, t in enumerate(raw)]


def input_hash(ops: list) -> str:
    return hashlib.sha256(repr(ops).encode()).hexdigest()


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_end_to_end(workload, lib, ops, seconds: float, rng: Random) -> dict:
    raw_setup, setup_times = measure_setup(workload.setup_code)
    ctx = workload.setup(lib, str(SRC))
    in_process = workload.name != "cli_mix"
    if in_process:
        for op in ops[:WARMUP_OPS]:
            workload.run(ctx, op)
    gc.collect()
    gc.freeze()  # the inputs and fixed objects stay; collections need not scan them
    round_len = workload.round_len()
    raw_latencies = []
    slices = []  # (slice index, wall time, operations done when it closed)
    answers = []  # of the current slice; checked and dropped when it closes
    clock = time.perf_counter
    scaler = reference.Scaler(in_process)
    slice_s = SLICE_S if in_process else PROCESS_SLICE_S
    raw_wall = 0.0
    done = failed = 0
    slice_start = start = clock()
    while True:
        op = ops[done % len(ops)]
        t0 = clock()
        answer = workload.run(ctx, op)
        t1 = clock()
        raw_latencies.append(t1 - t0)
        answers.append((op, workload.compact(answer)))
        done += 1
        finished = (done % round_len == 0 and done >= MIN_OPS
                    and raw_wall + t1 - slice_start >= seconds)
        if finished or t1 - slice_start >= slice_s:
            raw_wall += t1 - slice_start
            slices.append((scaler.mark(), t1 - slice_start, done))
            failed += sum(not workload.check(*entry) for entry in answers)
            answers.clear()
            if finished:
                break
            slice_start = clock()
    elapsed = clock() - start
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    peak_rss_mib = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    gc.unfreeze()
    wall = 0.0
    latencies = []
    for j, slice_wall, end in slices:
        factor = scaler.factor(j)
        wall += slice_wall * factor
        latencies.extend(x * factor for x in raw_latencies[len(latencies):end])

    checks, checks_failed = workload.extra_checks(ctx, rng, ops, done)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": done / wall,
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_p90_ms": p90(latencies) * 1000.0,
        "peak_rss_mib": peak_rss_mib,
    }
    raw = {
        "setup_s": statistics.median(raw_setup),
        "ops_per_s": done / raw_wall,
        "op_p50_ms": statistics.median(raw_latencies) * 1000.0,
        "op_p90_ms": p90(raw_latencies) * 1000.0,
    }
    samples = {"setup_s": len(setup_times), "ops_per_s": done, "op_p50_ms": done,
               "op_p90_ms": done, "peak_rss_mib": 1}
    return {
        "attempted": done,
        "failed": failed,
        "extra_checks": checks,
        "extra_checks_failed": checks_failed,
        "wall_s": raw_wall,
        "elapsed_s": elapsed,
        "reference_s": scaler.samples,
        "unscaled": raw,
        "metrics": metrics,
        "samples": samples,
    }


def run_traced(workload, lib, ops, seed: int) -> dict:
    ops = ops[:workload.trace_ops]
    ctx = workload.setup(lib, str(SRC))
    call = getattr(workload, "run_in_process", workload.run)
    clock = time.perf_counter

    for op in ops[:WARMUP_OPS]:
        call(ctx, op)
    scaler = reference.Scaler()
    t0 = clock()
    for op in ops:
        call(ctx, op)
    untraced = clock() - t0
    untraced_slice = scaler.mark()

    tracer = Tracer()
    answers = []
    output_bytes = 0
    with tracer:
        ctx = workload.setup(lib, str(SRC))  # fixed objects, traced as operation -1
        scaler.mark()
        t0 = clock()
        for i, op in enumerate(ops):
            tracer.current_op = i
            answer = call(ctx, op)
            if isinstance(workload, CliWorkload):
                output_bytes += len(answer[1].encode()) + len(answer[2].encode())
            answers.append(answer)
        traced = clock() - t0
    traced_slice = scaler.mark()
    failed = sum(not workload.check(op, workload.compact(a)) for op, a in zip(ops, answers))

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.tsv"
    tracer.write_spans(spans_path)
    totals = tracer.layer_totals()
    calls, inclusive, self_s = totals["calls"], totals["inclusive_s"], totals["self_s"]
    counts = tracer.counts

    def n(label: str) -> int:
        return calls.get(label, 0)

    def secs(*labels: str) -> float:
        return sum(inclusive.get(label, 0.0) for label in labels)

    scans = n("curve.CuspCurve.min_power") + n("curve.CuspCurve.stable_power")
    stored = counts.get("curve.stored_terms", 0)
    metrics = {
        "semigroup.contains_calls": n("semigroup.NumericalSemigroup.contains"),
        "semigroup.contains_s": secs("semigroup.NumericalSemigroup.contains"),
        "germ.parse_calls": n("germ.parse_germ"),
        "germ.parse_s": secs("germ.parse_germ"),
        "germ.mul_calls": n("germ.LaurentGerm.__mul__"),
        "germ.pow_calls": n("germ.LaurentGerm.__pow__"),
        "germ.add_calls": n("germ.LaurentGerm.__add__"),
        "germ.mul_term_pairs": counts.get("germ.mul_term_pairs", 0),
        "germ.terms_out": counts.get("germ.terms_out", 0),
        "germ.peak_terms": counts.get("germ.peak_terms", 0),
        "germ.peak_coeff_bits": counts.get("germ.peak_coeff_bits", 0),
        "germ.self_s": self_s["germ"],
        "curve.decide_calls": n("curve.CuspCurve.is_holomorphic_at_cusp"),
        "curve.decide_yes": counts.get("curve.decide_yes", 0),
        "curve.decide_no": counts.get("curve.decide_no", 0),
        "curve.decide_unknown": counts.get("curve.decide_unknown", 0),
        "curve.scan_calls": scans,
        "curve.scan_s": secs("curve.CuspCurve.min_power", "curve.CuspCurve.stable_power"),
        "curve.scan_muls_per_answer": counts.get("curve.scan_muls", 0) / scans if scans else 0.0,
        "curve.dead_term_ratio": counts.get("curve.dead_terms", 0) / stored if stored else 0.0,
        "curve.self_s": self_s["curve"],
        "surgery.build_calls": n("surgery.SurgeryCurve.build_standard"),
        "surgery.build_s": secs("surgery.SurgeryCurve.build_standard"),
        "surgery.validate_sites": counts.get("surgery.validate_sites", 0),
        "surgery.witness_calls": n("surgery.no_global_power_witness"),
        "surgery.site_decisions": n("surgery.Site.decision_for_power"),
        "surgery.check_power_s": secs("surgery.check_section_power"),
        "surgery.self_s": self_s["surgery"],
        "nagata.pow_calls": n("nagata.nagata_pow"),
        "nagata.self_s": self_s["nagata"],
        "cli.main_calls": n("cli.main"),
        "cli.self_s": self_s["cli"],
        "cli.output_bytes": output_bytes,
        "trace.overhead_ratio": (traced * scaler.factor(traced_slice)
                                 / (untraced * scaler.factor(untraced_slice))),
    }
    # shares of the traced wall time net of the tracer's own bookkeeping
    net = traced - totals["bookkeeping_s"]
    return {
        "attempted": len(ops),
        "failed": failed,
        "extra_checks": 0,
        "extra_checks_failed": 0,
        "untraced_s": untraced,
        "traced_s": traced,
        "layer_self_s": self_s,
        "layer_share": {k: v / net for k, v in self_s.items()},
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "metrics": metrics,
        "samples": {name: len(ops) for name in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    lib = load_library()

    workload = WORKLOADS[args.workload]
    rng = Random(args.seed)
    ops = workload.generate(rng)
    digest = input_hash(ops)
    check_rng = Random(f"{args.seed}-checks")
    if args.trace:
        result = run_traced(workload, lib, ops, args.seed)
        units = PER_LAYER_UNITS
    else:
        result = run_end_to_end(workload, lib, ops, args.seconds, check_rng)
        units = END_TO_END_UNITS
    failed = result["failed"] + result["extra_checks_failed"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
        "input_sha256": digest,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(),
        "fail_ratio": result["failed"] / result["attempted"],
        **{k: v for k, v in result.items() if k != "metrics"},
        "metrics": {k: {"value": v, "unit": units[k], "samples": result["samples"][k]}
                    for k, v in result["metrics"].items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"# {args.workload} seed={args.seed} inputs={digest[:16]} "
          f"python={record['python']} cpus={record['cpu_count']} commit={record['commit']}")
    for name, entry in record["metrics"].items():
        print(f"{name:28s} {entry['value']:>16.6g} {entry['unit']:6s} n={entry['samples']}")
    print(f"{'fail_ratio':28s} {record['fail_ratio']:>16.6g} {'ratio':6s} "
          f"n={result['attempted']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
