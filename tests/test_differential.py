"""CLI reports against the benchmark's library-free oracles.

`perfbench/oracles.py` rebuilds whole `--json` reports from dynamic
programming, closed forms and capped support sumsets, without the library's
arithmetic.  Here hypothesis draws small inputs, and each report of
`cli.main` must equal the oracle's, findings compared by label.
"""

import contextlib
import io
import json
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from independent_oracles import bench

from cuspgerms.cli import main


def coprime_pairs(limit: int):
    """Generators p != q of a numerical semigroup, both in 2..limit."""
    return st.sampled_from([(p, q) for p in range(2, limit + 1) for q in range(2, limit + 1)
                            if p != q and gcd(p, q) == 1])


def cli_report(*argv: object) -> tuple[dict, list[str]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--json", *map(str, argv)]) == 0
    return bench.strip_findings(json.loads(out.getvalue()))


@given(coprime_pairs(30), st.none() | st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_semigroup_info_matches_oracle(pq, bound):
    p, q = pq
    flags = [] if bound is None else ["--bound", bound]
    assert cli_report("semigroup", "info", "--p", p, "--q", q, *flags) == \
        bench.strip_findings(bench.semigroup_info(p, q, bound))


@given(coprime_pairs(30), st.integers(0, 50), st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_curve_multiplier_matches_oracle(pq, a, b):
    p, q = pq
    assert cli_report("curve", "multiplier", "--p", p, "--q", q, "--a", a, "--b", b) == \
        bench.strip_findings(bench.curve_multiplier(p, q, a, b))


@given(st.integers(1, 30), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_rado_witness_matches_oracle(n, extra_sites):
    max_k = n + extra_sites
    assert cli_report("rado", "witness", "--max-k", max_k, "--n", n) == \
        bench.strip_findings(bench.rado_witness(max_k, n))


@given(st.integers(2, 15), st.integers(0, 10), st.none() | st.integers(1, 250))
@settings(max_examples=40, deadline=None)
def test_theorem1_bound_matches_oracle(region, extra_sites, n):
    max_k = region + extra_sites
    flags = [] if n is None else ["--n", n]
    assert cli_report("theorem1", "bound", "--max-k", max_k, "--region", region,
                      *flags) == bench.strip_findings(bench.theorem1_bound(max_k, region, n))


@given(st.sampled_from(["inv", "expinv"]), st.integers(1, 30))
@settings(max_examples=20, deadline=None)
def test_nagata_demo_matches_oracle(g, max_pow):
    assert cli_report("nagata", "demo", "--g", g, "--max-pow", max_pow) == \
        bench.strip_findings(bench.nagata_demo(g, max_pow))


@st.composite
def positive_germs(draw):
    """(terms, tail) in the oracles' germ format, with positive rational
    coefficients, so that no product cancels a term (the support oracles'
    assumption)."""
    exps = sorted(draw(st.sets(st.integers(0, 12), min_size=1, max_size=4)))
    coeffs = draw(st.lists(st.fractions(Fraction(1, 4), 4, max_denominator=4),
                           min_size=len(exps), max_size=len(exps)))
    terms = tuple((e, c, Fraction(0)) for e, c in zip(exps, coeffs))
    tail = draw(st.none() | st.integers(exps[-1] + 1, exps[-1] + 12))
    return terms, tail


@given(coprime_pairs(7), positive_germs())
@settings(max_examples=40, deadline=None)
def test_curve_analyze_matches_oracle(pq, germ):
    p, q = pq
    terms, tail = germ
    want, labels = bench.curve_analyze(p, q, terms, tail)
    assert cli_report("curve", "analyze", "--p", p, "--q", q,
                      "--germ", bench.render_germ(terms, tail)) == (want, labels)
