"""Independent oracles used by the tests.

Everything here recomputes library answers from first principles (literal
enumeration, dynamic programming, floating point, sympy) or by the scans the
library replaced with closed forms, so test expectations do not share code
paths with the implementation under test.  The benchmark's library-free
oracles, `perfbench/oracles.py`, are loaded by path as `bench`; its DP
membership table is the one every test reads.
"""

from __future__ import annotations

import argparse
import cmath
import importlib.util
import math
import re
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

from cuspgerms import (
    GaussianRational,
    GermParseError,
    LaurentGerm,
    RootBoundReport,
    UndecidableAtTruncation,
    WeakGenerationReport,
    cli,
)


def brute_contains(p: int, q: int, n: int) -> bool:
    """Literal search over a*p + b*q = n with a <= n/p, b <= n/q."""
    if n < 0:
        return False
    return any(
        a * p + b * q == n
        for a in range(n // p + 1)
        for b in range(n // q + 1)
    )


def brute_representation(p: int, q: int, n: int) -> tuple[int, int] | None:
    """Smallest-a representation by literal search."""
    if n < 0:
        return None
    for a in range(n // p + 1):
        rest = n - a * p
        if rest % q == 0:
            return (a, rest // q)
    return None


def _load_bench_oracles():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench_oracles()


def dp_conductor(p: int, q: int) -> int:
    """One past the largest non-member of <p, q>, read off the DP table
    (every non-member lies below p*q)."""
    dp = bench.membership(p, q, p * q)
    return max((i for i in range(p * q + 1) if not dp[i]), default=-1) + 1


def ideal_contains_by_representation(k: int, e: int) -> bool:
    """Surgery-ideal membership at site k by its definition: e = k(k-1) + j + s
    with 0 <= j <= k-1 and s in <k, k+1>, each s found by literal search."""
    base = k * (k - 1)
    return any(brute_contains(k, k + 1, e - base - j) for j in range(k))


def validate_star_all_pairs(sites) -> bool:
    """Every pair of closed disks disjoint, and no disk reaches another center."""
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            gap = abs(a.center - b.center)
            if gap <= a.radius + b.radius:
                return False
            if gap <= a.radius or gap <= b.radius:
                return False
    return True


def max_site_conductor(curve, region_max_index: int) -> int:
    """Largest conductor of <k, k+1> over the sites k <= K of a glued curve."""
    return max(
        dp_conductor(s.index, s.index + 1)
        for s in curve.sites if s.index <= region_max_index
    )


def first_refusing_site_scan(curve, n: int, section) -> int | None:
    """Every site in order, skipping those at or below n; the first whose n-th
    power decision is CertainlyNo, or None if no site refuses."""
    for site in curve.sites:
        if site.index <= n:
            continue
        if site.decision_for_power(section.germ_at(site.index), n).is_no:
            return site.index
    return None


def sympy_truncated_power(
    terms: dict[int, tuple[Fraction, Fraction]], tail: int | None, n: int
) -> tuple[dict[int, tuple[Fraction, Fraction]], int | None]:
    """f**n for n >= 1 by sympy's truncated series power over QQ_I.

    `terms` maps exponents to nonzero (re, im) pairs and must not be empty;
    the result comes back in the same form with its tail bound.  With f =
    t^lo * g, f^n = t^(n*lo) * g^n, and below the tail only g^n mod
    t^(tail - lo) is known; an exact f needs g^n up to degree n*(hi - lo).
    """
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.ring_series import rs_pow
    from sympy.polys.rings import ring

    def qq(v: Fraction):
        return QQ(v.numerator, v.denominator)

    def fraction(v) -> Fraction:
        return Fraction(int(v.numerator), int(v.denominator))

    lo, hi = min(terms), max(terms)
    poly_ring, x = ring("x", QQ_I)
    g = poly_ring({(e - lo,): QQ_I(qq(re), qq(im)) for e, (re, im) in terms.items()})
    precision = n * (hi - lo) + 1 if tail is None else tail - lo
    power = rs_pow(g, n, x, precision)
    result = {
        n * lo + k: (fraction(c.x), fraction(c.y)) for (k,), c in power.items() if c
    }
    return result, None if tail is None else (n - 1) * lo + tail


def sympy_truncated_product(
    f: tuple[dict[int, tuple[Fraction, Fraction]], int | None],
    g: tuple[dict[int, tuple[Fraction, Fraction]], int | None],
) -> tuple[dict[int, tuple[Fraction, Fraction]], int | None]:
    """f * g by sympy polynomial multiplication over QQ_I, truncated.

    Each factor is (terms, tail) with nonempty terms mapping exponents to
    nonzero (re, im) pairs.  A factor's unknown terms start at its tail, so
    the product is known below min(lo_f + T_g, T_f + lo_g), the bounds that
    exist; an exact product keeps every term.
    """
    from sympy.polys.domains import QQ, QQ_I
    from sympy.polys.rings import ring

    def qq(v: Fraction):
        return QQ(v.numerator, v.denominator)

    def fraction(v) -> Fraction:
        return Fraction(int(v.numerator), int(v.denominator))

    (f_terms, f_tail), (g_terms, g_tail) = f, g
    f_lo, g_lo = min(f_terms), min(g_terms)
    poly_ring, _ = ring("x", QQ_I)

    def poly(terms, lo):
        return poly_ring({(e - lo,): QQ_I(qq(re), qq(im)) for e, (re, im) in terms.items()})

    bounds = [lo + tail for lo, tail in ((f_lo, g_tail), (g_lo, f_tail)) if tail is not None]
    tail = min(bounds) if bounds else None
    product = poly(f_terms, f_lo) * poly(g_terms, g_lo)
    result = {
        f_lo + g_lo + k: (fraction(c.x), fraction(c.y))
        for (k,), c in product.items()
        if c and (tail is None or f_lo + g_lo + k < tail)
    }
    return result, tail


def numeric_weierstrass_coeffs(d: int, e: int, z: complex) -> list[complex]:
    """Monic coefficients of prod_j (T - t_j^e) over the fiber t_j^d = z,
    highest degree first, via numpy's polynomial-from-roots."""
    import numpy as np

    root_of_z = z ** (1.0 / d)
    fiber = [root_of_z * cmath.exp(2j * cmath.pi * j / d) for j in range(d)]
    return list(np.poly([t ** e for t in fiber]))


def root_bound_by_sampling(poly, moduli: list[float] | None = None,
                           angles: int = 4) -> RootBoundReport:
    """`WeierstrassPoly.root_bound_check` by sampling: the largest |root| that
    numpy finds over a few angles at each modulus, against |z|^(1/d).

    np.roots perturbs a root of multiplicity g by about eps^(1/g) relative to
    its size, so comparisons with the closed form need that tolerance.
    """
    import numpy as np

    d = poly.degree
    if moduli is None:
        moduli = [10.0 ** (-k / 2.0) for k in range(4, 13)]  # 1e-2 .. 1e-6
    moduli = sorted(moduli, reverse=True)
    ratios: list[float] = []
    for r in moduli:
        worst = 0.0
        for a in range(angles):
            z = r * complex(math.cos(2 * math.pi * a / angles),
                            math.sin(2 * math.pi * a / angles))
            roots = np.roots(poly.coefficients_at(z))
            worst = max(worst, float(max(abs(roots))))
        ratios.append(worst / r ** (1.0 / d))
    half = max(1, len(ratios) // 2)
    fitted = max(ratios[:half])
    worst_ratio = max(ratios)
    stable = all(rat <= fitted * (1.0 + 1e-6) for rat in ratios[half:])
    return RootBoundReport(constant=fitted, stable=stable, worst_ratio=worst_ratio)


def root_bound_tolerance(poly) -> float:
    """Relative tolerance for comparing `root_bound_by_sampling` with the
    closed form: a few eps^(1/g) for multiplicity g, and 1e-12 at least."""
    return 10 * sys.float_info.epsilon ** (1 / poly.multiplicity) + 1e-12


def min_power_scan(curve, f: LaurentGerm) -> int:
    """`CuspCurve.min_power` by multiplying full, uncapped powers of f."""
    if f.is_zero():
        raise ValueError("zero germ has no minimal holomorphic power")
    if curve.is_weakly_holomorphic(f).is_no:
        raise ValueError("germ is not weakly holomorphic")
    cap = curve.semigroup.conductor()
    unknown_at: int | None = None
    power = f
    for n in range(1, cap + 1):
        verdict = curve.is_holomorphic_at_cusp(power)
        if verdict.is_yes:
            return n
        if verdict.is_unknown and unknown_at is None:
            unknown_at = n
        power = power * f
    if unknown_at is not None:
        raise UndecidableAtTruncation(
            f"power {unknown_at} undecidable at the germ's truncation"
        )
    raise ValueError(f"no power up to the conductor {cap} is holomorphic")


def stable_power_scan(curve, f: LaurentGerm) -> int:
    """`CuspCurve.stable_power` by multiplying full, uncapped powers of f."""
    if f.is_zero():
        raise ValueError("zero germ has no stable power")
    lo = f.lowest_exponent()
    if lo is None:
        raise UndecidableAtTruncation("tail-only germ: lowest exponent unknown")
    if lo < 0:
        raise ValueError("germ is not weakly holomorphic")
    c = curve.semigroup.conductor()
    if lo >= 1:
        # every exponent of f^n is >= n, so powers from the conductor on
        # are holomorphic; only the window below it needs scanning
        last_no = 0
        unknowns: list[int] = []
        power = f
        for n in range(1, c):
            verdict = curve.is_holomorphic_at_cusp(power)
            if verdict.is_no:
                last_no = n
            elif verdict.is_unknown:
                unknowns.append(n)
            power = power * f
        if any(n > last_no for n in unknowns):
            raise UndecidableAtTruncation(
                "undecided powers above the last certain failure"
            )
        return last_no + 1
    # unit at the cusp: a full run of holomorphic powers N..2N-1 settles
    # all n >= N, because products of holomorphic germs stay supported
    # in the semigroup
    cap = c + curve.p * curve.q
    last_bad = 0
    saw_unknown = False
    power = f
    for n in range(1, cap + 1):
        verdict = curve.is_holomorphic_at_cusp(power)
        if verdict.is_yes:
            candidate = last_bad + 1
            if n >= 2 * candidate - 1:
                if saw_unknown:
                    raise UndecidableAtTruncation(
                        "undecided powers below the certified run"
                    )
                return candidate
        else:
            if verdict.is_unknown:
                saw_unknown = True
            last_bad = n
        power = power * f
    if saw_unknown:
        raise UndecidableAtTruncation(
            f"no certified run of holomorphic powers up to {cap}"
        )
    raise ValueError(f"no stable power found up to {cap}")


def weak_generation_scan(curve) -> WeakGenerationReport:
    """`CuspCurve.weak_generation_report` by its definition: every e with
    0 <= e <= conductor + r is checked for a member e - j with 0 <= j <= r,
    and again with 0 <= j <= r - 1, against a DP membership table."""
    p, q = curve.p, curve.q
    r = min(p, q) - 1
    bound = (p - 1) * (q - 1) + r
    table = bench.membership(p, q, bound)

    def covered(e: int, max_j: int) -> bool:
        return any(table[e - j] for j in range(min(max_j, e) + 1))

    return WeakGenerationReport(
        generator_power_max=r,
        checked_up_to=bound,
        generates=all(covered(e, r) for e in range(bound + 1)),
        one_fewer_suffices=all(covered(e, r - 1) for e in range(bound + 1)),
    )


def dominant_axis_by_sampling(p: int, q: int, radii: list[float] | None = None) -> int:
    """Which coordinate of (t^q, t^p) dominates as t -> 0: 1 for z1, 2 for z2.

    Samples decreasing |t| over several angles and checks the smaller
    component shrinks relative to the larger one.
    """
    if radii is None:
        radii = [10.0 ** (-k) for k in range(2, 7)]

    def worst_ratio(r: float) -> float:
        return max(
            abs(t ** q) / abs(t ** p)
            for t in (r * cmath.exp(2j * cmath.pi * (a + 0.17) / 3) for a in range(3))
        )

    coarse, fine = worst_ratio(radii[0]), worst_ratio(radii[-1])
    if fine < coarse * 1e-3 and fine < 1e-3:
        return 2  # z1 vanishes faster, the z2 component dominates
    if fine > coarse * 1e3 and fine > 1e3:
        return 1
    raise AssertionError(f"no dominant axis for p={p}, q={q}: {coarse} -> {fine}")


def loglog_flatness_slope(e: int, p: int, q: int, radii: list[float]) -> float:
    """Exponent a with |t^e| ~ ||(t^q, t^p)||^a recovered from two scales."""
    vals = []
    for r in radii:
        t = r * cmath.exp(0.31j)
        norm = max(abs(t ** q), abs(t ** p))
        vals.append((math.log(abs(t ** e)), math.log(norm)))
    (f1, n1), (f2, n2) = vals[0], vals[-1]
    return (f2 - f1) / (n2 - n1)


_COEFF_POOL = [
    Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 7),
    Fraction(5), Fraction(-2, 3),
]


def random_vanishing_germ(rng: Random, max_width: int = 6) -> LaurentGerm:
    """Random germ with lowest exponent >= 1 and a narrow support window.

    Mixes exact monomials with truncated multi-term germs; multi-term germs
    always carry a tail bound so their powers stay small.
    """
    lo = rng.randint(1, 5)
    if rng.random() < 0.4:
        coeff = rng.choice(_COEFF_POOL)
        if rng.random() < 0.15:
            coeff = GaussianRational(coeff, rng.choice(_COEFF_POOL))
        return LaurentGerm.monomial(lo, coeff)
    width = rng.randint(1, max_width)
    tail = lo + width + 1
    terms = {lo: rng.choice(_COEFF_POOL)}
    for _ in range(rng.randint(0, width)):
        e = rng.randint(lo, tail - 1)
        c = rng.choice(_COEFF_POOL)
        if rng.random() < 0.1:
            c = GaussianRational(c, rng.choice(_COEFF_POOL))
        terms[e] = c
    return LaurentGerm(terms, tail)


def reference_parser() -> argparse.ArgumentParser:
    """The command-line parser written out by hand, call by call, as the CLI
    built it before it declared its commands in one table; the table-built
    `cli.build_parser()` must give the same help, usage errors and namespaces."""
    parser = argparse.ArgumentParser(
        prog="cuspgerms",
        description="Exact holomorphy arithmetic on monomial cusp curves.",
    )
    parser.add_argument("--json", action="store_true", help="emit a structured JSON report")
    groups = parser.add_subparsers(dest="group", required=True)

    sg = groups.add_parser("semigroup", help="numerical semigroup computations")
    sg_cmds = sg.add_subparsers(dest="cmd", required=True)
    sg_info = sg_cmds.add_parser("info", help="conductor, Frobenius number, membership table")
    sg_info.add_argument("--p", type=int, required=True)
    sg_info.add_argument("--q", type=int, required=True)
    sg_info.add_argument("--bound", type=int, default=None,
                         help="membership table bound (default: conductor + 1)")
    sg_info.set_defaults(handler=cli._cmd_semigroup_info)

    cv = groups.add_parser("curve", help="cusp curve invariants")
    cv_cmds = cv.add_subparsers(dest="cmd", required=True)
    cv_an = cv_cmds.add_parser("analyze", help="holomorphy, powers, flatness, cone")
    cv_an.add_argument("--p", type=int, required=True)
    cv_an.add_argument("--q", type=int, required=True)
    cv_an.add_argument("--germ", type=str, default=None,
                       help="germ spec, e.g. 't^2 + 1/2*t^3 + O(t^9)' (default: t)")
    cv_an.set_defaults(handler=cli._cmd_curve_analyze)
    cv_mul = cv_cmds.add_parser("multiplier", help="floor vs exact holomorphy condition")
    cv_mul.add_argument("--p", type=int, required=True)
    cv_mul.add_argument("--q", type=int, required=True)
    cv_mul.add_argument("--a", type=int, required=True)
    cv_mul.add_argument("--b", type=int, required=True)
    cv_mul.set_defaults(handler=cli._cmd_curve_multiplier)

    rado = groups.add_parser("rado", help="global sections of the glued curve")
    rado_cmds = rado.add_subparsers(dest="cmd", required=True)
    rado_wit = rado_cmds.add_parser("witness", help="site refusing a given power")
    rado_wit.add_argument("--max-k", type=int, required=True, dest="max_k")
    rado_wit.add_argument("--n", type=int, required=True)
    rado_wit.set_defaults(handler=cli._cmd_rado_witness)

    th1 = groups.add_parser("theorem1", help="uniform power bounds per region")
    th1_cmds = th1.add_subparsers(dest="cmd", required=True)
    th1_bound = th1_cmds.add_parser("bound", help="region power bound and decision table")
    th1_bound.add_argument("--max-k", type=int, required=True, dest="max_k")
    th1_bound.add_argument("--region", type=int, required=True)
    th1_bound.add_argument("--n", type=int, default=None)
    th1_bound.set_defaults(handler=cli._cmd_theorem1_bound)

    ng = groups.add_parser("nagata", help="dual-number sections over the punctured line")
    ng_cmds = ng.add_subparsers(dest="cmd", required=True)
    ng_demo = ng_cmds.add_parser("demo", help="extension table for powers of z + eps*g")
    ng_demo.add_argument("--g", choices=["inv", "expinv"], required=True)
    ng_demo.add_argument("--max-pow", type=int, required=True, dest="max_pow")
    ng_demo.set_defaults(handler=cli._cmd_nagata_demo)

    return parser


_RAT = r"[+-]?\d+(?:/\d+)?"
_REFERENCE_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:"
    r"O\(t\^(?P<tail>-?\d+)\)"
    rf"|(?:(?P<rat>\d+(?:/\d+)?)|\(\s*(?P<re>{_RAT})\s*,\s*(?P<im>{_RAT})\s*\))"
    r"(?:\s*\*\s*(?P<power>t(?:\^-?\d+)?))?"
    r"|(?P<t>t(?:\^-?\d+)?)"
    r")\s*"
)


def reference_parse_germ(text: str) -> tuple[dict[int, tuple[int, int]], int, int | None]:
    """The germ grammar read through `Fraction`, as the library read it
    before it parsed into integer parts: the stored data (numerators,
    denominator, tail) of the parsed germ, or the same `GermParseError`.

    Each coefficient part is a `Fraction` (which reduces it and refuses a
    zero denominator or a number longer than `int()` converts); the parts of
    one exponent are summed as `Fraction`s, zero sums dropped, and every
    numerator put over the lcm of the reduced sums' denominators, which is
    the primitive form without a gcd."""
    if not text.strip():
        raise GermParseError("empty germ specification")
    terms: list[tuple[int, Fraction, Fraction]] = []
    tail: int | None = None
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TERM.match(text, pos)
        if not m or (m["sign"] == "+" if pos == 0 else not m["sign"]):
            raise GermParseError(f"cannot read germ at ...{text[pos:]!r}")
        pos = m.end()
        negate = m["sign"] == "-"
        power = m["power"] or m["t"]
        try:
            bound = None if m["tail"] is None else int(m["tail"])
            exponent = 0 if power is None else int(power[2:] or 1)
            if m["re"] is None:
                re_part, im_part = Fraction(m["rat"] or 1), Fraction(0)
            else:
                re_part, im_part = Fraction(m["re"]), Fraction(m["im"])
        except ZeroDivisionError:
            raise GermParseError(f"zero denominator in {m[0].strip()!r}") from None
        except ValueError as exc:
            raise GermParseError(str(exc)) from None
        if bound is not None:
            if negate:
                raise GermParseError("tail marker cannot be subtracted")
            if tail is not None:
                raise GermParseError("more than one tail marker")
            tail = bound
            continue
        if tail is not None:
            raise GermParseError("terms after the tail marker")
        if negate:
            re_part, im_part = -re_part, -im_part
        terms.append((exponent, re_part, im_part))
    sums: dict[int, tuple[Fraction, Fraction]] = {}
    for e, re_part, im_part in terms:
        if tail is not None and e >= tail:
            raise GermParseError(f"stored exponent {e} not below tail bound {tail}")
        s = sums.get(e, (Fraction(0), Fraction(0)))
        sums[e] = (s[0] + re_part, s[1] + im_part)
    parts = {e: s for e, s in sorted(sums.items()) if s[0] or s[1]}
    den = math.lcm(*(x.denominator for s in parts.values() for x in s))
    num = {e: (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
           for e, (x, y) in parts.items()}
    return num, den, tail
