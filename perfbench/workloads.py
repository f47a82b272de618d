"""The three workloads: input generators, one operation each, and its check.

Inputs are plain tuples made from the seed alone; the library only ever sees
them through the operation.  Each workload deals its inputs in rounds of a
fixed composition (every region and site, every curve and germ family, every
command kind), so runs of different seeds measure the same mix; the seed
varies exponents, coefficients and sizes within it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from random import Random

import oracles

F0 = Fraction(0)
F1 = Fraction(1)
_POOL = [F1, Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 7), Fraction(5),
         Fraction(-2, 3)]
_POSITIVE = [F1, Fraction(2), Fraction(1, 2), Fraction(3, 7), Fraction(5), Fraction(2, 3),
             Fraction(7, 5)]


def _terms(mapping: dict) -> tuple:
    return tuple((e, re, im) for e, (re, im) in sorted(mapping.items()))


def _germ(lib, terms, tail):
    coeffs = {e: lib.GaussianRational(re, im) if im else re for e, re, im in terms}
    return lib.LaurentGerm(coeffs, tail)


# -- region_power ---------------------------------------------------------------------

class RegionPower:
    """Powers of narrow vanishing germs at the sites of one region of the
    glued curve: u ** n_omega(R), then ten more `* u`, each decided at the site.

    Germ arithmetic carries nearly all the cost; surgery is touched only
    through n_omega and the site lookup, and the CLI not at all.
    """

    name = "region_power"
    max_k = 12
    rounds = 600  # 66 operations each; a run cycles through them if it gets further
    sympy_sample = 32
    trace_ops = 20 * 66
    setup_code = f"import cuspgerms, cuspgerms.cli\ncuspgerms.SurgeryCurve.build_standard({max_k})\n"

    def params(self) -> dict:
        return {"max_k": self.max_k, "ops_per_round": self._pairs_count(),
                "rounds": self.rounds, "extra_products": 10,
                "sympy_sample": self.sympy_sample}

    def _pairs_count(self) -> int:
        return sum(r - 1 for r in range(2, self.max_k + 1))

    @staticmethod
    def vanishing_germ(rng: Random):
        """About 40 % exact monomials, the rest truncated germs of width <= 4;
        half of those have positive coefficients only (they cannot cancel),
        the others draw signed coefficients, about 10 % of them Gaussian."""
        lo = rng.randint(1, 5)
        if rng.random() < 0.4:
            re, im = rng.choice(_POOL), F0
            if rng.random() < 0.15:
                im = rng.choice(_POOL)
            return ((lo, re, im),), None
        width = rng.randint(1, 4)
        tail = lo + width + 1
        positive = rng.random() < 0.5
        pool = _POSITIVE if positive else _POOL
        terms = {lo: (rng.choice(pool), F0)}
        for _ in range(rng.randint(0, width)):
            e = rng.randint(lo, tail - 1)
            im = F0 if positive or rng.random() >= 0.1 else rng.choice(_POOL)
            terms[e] = (rng.choice(pool), im)
        return _terms(terms), tail

    def generate(self, rng: Random) -> list:
        pairs = [(r, k) for r in range(2, self.max_k + 1) for k in range(2, r + 1)]
        ops = []
        for _ in range(self.rounds):
            rng.shuffle(pairs)
            for region, site in pairs:
                terms, tail = self.vanishing_germ(rng)
                ops.append((region, site, terms, tail))
        return ops

    def round_len(self) -> int:
        return self._pairs_count()

    def setup(self, lib, src_dir):
        return {"lib": lib, "curve": lib.SurgeryCurve.build_standard(self.max_k)}

    def run(self, ctx, op):
        lib = ctx["lib"]
        region, site, terms, tail = op
        u = _germ(lib, terms, tail)
        bound = lib.n_omega(ctx["curve"], region)
        holomorphic = ctx["curve"].site(site).curve.is_holomorphic_at_cusp
        power = u ** bound
        kinds = [holomorphic(power).kind]
        for _ in range(10):
            power = power * u
            kinds.append(holomorphic(power).kind)
        return bound, kinds, power

    @staticmethod
    def compact(answer):
        bound, kinds, power = answer
        return bound, "".join(k[0] for k in kinds), tuple(power.exponents()), power.tail_bound

    def check(self, op, answer) -> bool:
        region, _, terms, tail = op
        bound, kinds, exps, power_tail = answer
        if bound != (region - 1) * region or kinds != "y" * 11:
            return False
        want, want_tail = oracles.power_support(terms, tail, bound + 10)
        if power_tail != want_tail:
            return False
        if oracles.can_cancel(terms):
            return set(exps) <= set(want)
        return list(exps) == want

    def extra_checks(self, ctx, rng: Random, ops: list, done: int) -> tuple[int, int]:
        """Sharpness per region, and a sample of powers against sympy."""
        lib = ctx["lib"]
        curve = ctx["curve"]
        t = lib.LaurentGerm.monomial(1)
        checks = failed = 0
        for region in range(2, self.max_k + 1):
            bound = (region - 1) * region
            site = curve.site(region)
            checks += 2
            failed += not site.decision_for_power(t, bound).is_yes
            failed += not site.decision_for_power(t, bound - 1).is_no
        sample = rng.sample(range(min(done, len(ops))), min(self.sympy_sample, done))
        for i in sample:
            region, _, terms, tail = ops[i]
            n = (region - 1) * region + 10
            got = _germ(lib, terms, tail) ** n
            checks += 1
            failed += not _sympy_power_matches(terms, tail, n, got)
        return checks, failed


def _sympy_power_matches(terms, tail, n, got) -> bool:
    """f^n = t^(n*e0) * g^n with g = f / t^e0; below the tail only g^n mod
    t^(tail - e0) matters, which sympy's truncated series power computes."""
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.ring_series import rs_pow
    from sympy.polys.rings import ring

    e0 = terms[0][0]
    ring_, x = ring("x", QQ_I)

    def q(v: Fraction):
        return QQ(v.numerator, v.denominator)

    g = ring_({(e - e0,): QQ_I(q(re), q(im)) for e, re, im in terms})
    if tail is None:
        width = (terms[-1][0] - e0) * n + 1
        want_tail = None
    else:
        width = tail - e0
        want_tail = (n - 1) * e0 + tail
    expected = rs_pow(g, n, x, width)
    want = {}
    for (k,), c in expected.items():
        if c:
            want[n * e0 + k] = (Fraction(int(c.x.numerator), int(c.x.denominator)),
                                Fraction(int(c.y.numerator), int(c.y.denominator)))
    have = {e: (c.re, c.im) for e, c in got.items()}
    return have == want and got.tail_bound == want_tail


# -- cusp_scan -------------------------------------------------------------------------

def coprime_pairs(limit: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(2, limit + 1) for q in range(p + 1, limit + 1)
            if gcd(p, q) == 1]


def scan_germ(rng: Random, family: str, tail: int, extra: int, lead: int,
              gap_first: bool = False, p: int = 2, q: int = 3):
    """A germ with positive coefficients, so no product can cancel a term.

    Truncated germs get `extra` terms after the leading one, with fixed
    coefficients by position; the seed picks their exponents.  A vanishing
    germ leads with t^lead.  A unit's first exponent after the constant is
    a gap of <p, q> when `gap_first` holds (then no power is holomorphic and
    the scans run to the end), else a member where one fits below the tail.
    Monomials ignore all but the family.
    """
    if family == "monomial":
        return ((rng.randint(1, 30), rng.choice(_POSITIVE), F0),), None
    if family == "vanishing":
        lo = lead
        tail = max(tail, lo + 3)
        terms = {lo: (F1, F0)}
    else:  # unit
        lo = 0
        terms = {0: (F1, F0)}
    # the first exponent after the leading one is fixed and small, so powers
    # soon fill every exponent below the tail and cost the same for all seeds:
    # 1 is a gap of every <p, q>, p its least nonzero member
    if family == "unit":
        first = p if not gap_first and p < tail - 1 else 1
    else:
        first = lo + 1
    terms[first] = (_POSITIVE[1], F0)
    span = range(first + 1, tail)
    for j, e in enumerate(sorted(rng.sample(span, min(len(span), extra - 1)))):
        terms[e] = (_POSITIVE[(j + 2) % len(_POSITIVE)], F0)
    return _terms(terms), tail


class CliWorkload:
    """Running `cuspgerms.cli.main` in-process with its output captured.

    Answers are (exit code, stdout, stderr) and need no compacting; there
    are no checks beyond the per-operation ones.
    """

    compact = staticmethod(lambda answer: answer)

    def extra_checks(self, ctx, rng, ops, done) -> tuple[int, int]:
        return 0, 0

    @staticmethod
    def call_main(lib, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
        return code, out.getvalue(), err.getvalue()


class CuspScan(CliWorkload):
    """`--json curve analyze` over every coprime p < q <= 14 and three germ
    families; min_power and stable_power multiply wide fixed-precision
    powers, and units whose first exponent is a gap scan to c + pq.

    One round gives every (curve, family) cell each truncation level once,
    in shuffled order.  The level also fixes the number of terms, the
    leading exponent of vanishing germs and, for units, whether the first
    exponent is a gap (at the three widest levels).  The seed picks the
    other exponents.
    """

    name = "cusp_scan"
    max_gen = 14
    tail_levels = (12, 24, 36, 48, 60)
    families = ("monomial", "vanishing", "unit")
    rounds = 3
    trace_ops = 150
    setup_code = "import cuspgerms, cuspgerms.cli\n"

    def params(self) -> dict:
        return {"max_generator": self.max_gen, "tail_levels": list(self.tail_levels),
                "families": list(self.families), "ops_per_round": self.round_len(),
                "rounds": self.rounds}

    def _cells(self) -> list:
        return [(p, q, fam) for p, q in coprime_pairs(self.max_gen) for fam in self.families]

    def round_len(self) -> int:
        return len(self._cells()) * len(self.tail_levels)

    def generate(self, rng: Random) -> list:
        cells = self._cells()
        levels = len(self.tail_levels)
        ops = []
        for _ in range(self.rounds):
            offset = {cell: rng.randrange(levels) for cell in cells}
            for r in range(levels):
                rng.shuffle(cells)
                for cell in cells:
                    p, q, fam = cell
                    level = (r + offset[cell]) % levels
                    terms, tail = scan_germ(rng, fam, self.tail_levels[level], 1 + level % 3,
                                            1 + (level + 2) % 5, level >= 2, p, q)
                    ops.append((p, q, terms, tail))
        return ops

    def setup(self, lib, src_dir):
        return {"lib": lib}

    @staticmethod
    def argv(op) -> list[str]:
        p, q, terms, tail = op
        return ["--json", "curve", "analyze", "--p", str(p), "--q", str(q),
                "--germ", oracles.render_germ(terms, tail)]

    def run(self, ctx, op):
        return self.call_main(ctx["lib"], self.argv(op))

    def check(self, op, answer) -> bool:
        code, out, _ = answer
        if code != 0:
            return False
        p, q, terms, tail = op
        want, labels = oracles.curve_analyze(p, q, terms, tail)
        got, got_labels = oracles.strip_findings(json.loads(out))
        return got == want and got_labels == labels


# -- cli_mix ------------------------------------------------------------------------------

class CliMix(CliWorkload):
    """Whole `python -m cuspgerms.cli --json ...` invocations, one after the
    other: interpreter start, import, surgery's site validation, semigroup
    tables and rendering; germ arithmetic stays small."""

    name = "cli_mix"
    rounds = 12
    trace_ops = 40
    setup_code = "import cuspgerms, cuspgerms.cli\n"
    # command kind -> operations per round.  Quick commands (interpreter
    # start and little else) are well over half of a round, so the median
    # falls among them; four curves of nearly 400 sites are its costliest
    # sixth, so the 90th percentile falls among those.  Neither lands in
    # the gap between two kinds of command.
    mix = {"rado": 5, "theorem1": 3, "semigroup": 3, "nagata": 2, "multiplier": 6,
           "analyze": 3, "error": 4}

    def params(self) -> dict:
        return {"mix_per_round": dict(self.mix), "rounds": self.rounds,
                "rado_max_k": [100, 400], "theorem1_max_k": [20, 120],
                "semigroup_generators": [40, 200]}

    def round_len(self) -> int:
        return sum(self.mix.values())

    def _command(self, rng: Random, kind: str, index: int) -> tuple:
        """One command of a kind; `index` counts the kind within its round and
        picks the size stratum, so every round costs about the same."""
        if kind == "rado":
            k = rng.randint(100, 300) if index == 0 else rng.randint(390, 400)
            return ("rado", k, rng.randint(1, k - 1))
        if kind == "theorem1":
            k = (20, 65, 110)[index] + rng.randint(0, 10)
            n = rng.randint(1, 200) if index % 2 else None
            return ("theorem1", k, rng.randint(k // 2, k), n)
        if kind == "semigroup":
            lo = (40, 95, 150)[index]
            while True:
                p, q = rng.randint(lo, lo + 50), rng.randint(lo, lo + 50)
                if p != q and gcd(p, q) == 1:
                    return ("semigroup", p, q)
        if kind == "nagata":
            return ("nagata", ("inv", "expinv")[index % 2], rng.randint(10, 100))
        if kind == "multiplier":
            while True:
                p, q = rng.randint(2, 30), rng.randint(2, 30)
                if p != q and gcd(p, q) == 1:
                    return ("multiplier", p, q, rng.randint(0, 50), rng.randint(0, 50))
        if kind == "analyze":
            p, q = rng.choice(coprime_pairs(7))
            terms, tail = scan_germ(rng, CuspScan.families[index], rng.randint(6, 20),
                                    rng.randint(1, 3), rng.randint(1, 3), rng.random() < 0.5,
                                    p, q)
            return ("analyze", p, q, terms, tail)
        # expected domain errors, exit code 1
        if index % 2:
            k = rng.randint(5, 50)
            return ("error", ["rado", "witness", "--max-k", str(k),
                              "--n", str(rng.randint(k, k + 20))])
        g = rng.randint(2, 6)
        return ("error", ["semigroup", "info", "--p", str(g * rng.randint(1, 5)),
                          "--q", str(g * rng.randint(6, 10))])

    def generate(self, rng: Random) -> list:
        kinds = [k for k, n in self.mix.items() for _ in range(n)]
        ops = []
        for _ in range(self.rounds):
            rng.shuffle(kinds)
            seen: dict[str, int] = {}
            for kind in kinds:
                index = seen[kind] = seen.get(kind, -1) + 1
                ops.append(self._command(rng, kind, index))
        return ops

    @staticmethod
    def argv(op) -> list[str]:
        kind = op[0]
        if kind == "rado":
            args = ["rado", "witness", "--max-k", str(op[1]), "--n", str(op[2])]
        elif kind == "theorem1":
            args = ["theorem1", "bound", "--max-k", str(op[1]), "--region", str(op[2])]
            if op[3] is not None:
                args += ["--n", str(op[3])]
        elif kind == "semigroup":
            args = ["semigroup", "info", "--p", str(op[1]), "--q", str(op[2])]
        elif kind == "nagata":
            args = ["nagata", "demo", "--g", op[1], "--max-pow", str(op[2])]
        elif kind == "multiplier":
            args = ["curve", "multiplier", "--p", str(op[1]), "--q", str(op[2]),
                    "--a", str(op[3]), "--b", str(op[4])]
        elif kind == "analyze":
            return CuspScan.argv(op[1:])
        else:
            args = op[1]
        return ["--json"] + args

    def setup(self, lib, src_dir):
        return {"lib": lib, "env": dict(os.environ, PYTHONPATH=src_dir)}

    def run(self, ctx, op):
        proc = subprocess.run([sys.executable, "-m", "cuspgerms.cli"] + self.argv(op),
                              env=ctx["env"], capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, ctx, op):
        return self.call_main(ctx["lib"], self.argv(op))

    def check(self, op, answer) -> bool:
        code, out, err = answer
        kind = op[0]
        if kind == "error":
            return code == 1 and out == "" and err.startswith("error:")
        if code != 0:
            return False
        got, labels = oracles.strip_findings(json.loads(out))
        if kind == "analyze":
            want, want_labels = oracles.curve_analyze(*op[1:])
            return got == want and labels == want_labels
        if kind == "rado":
            want = oracles.rado_witness(op[1], op[2])
        elif kind == "theorem1":
            want = oracles.theorem1_bound(op[1], op[2], op[3])
        elif kind == "semigroup":
            want = oracles.semigroup_info(op[1], op[2], None)
        elif kind == "nagata":
            want = oracles.nagata_demo(op[1], op[2])
        else:
            want = oracles.curve_multiplier(*op[1:])
        want, want_labels = oracles.strip_findings(want)
        return got == want and labels == want_labels


WORKLOADS = {w.name: w for w in (RegionPower(), CuspScan(), CliMix())}
