"""Acceptance gate: ten criteria, each run against a wall-clock budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``[PASS]``/``[FAIL]`` line per criterion with its runtime.  Each criterion is
a single test so the gate reports exactly ten lines.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from random import Random

from cuspgerms import (
    CuspCurve,
    LaurentGerm,
    LaurentObject,
    NumericalSemigroup,
    SurgeryCurve,
    WeierstrassPoly,
    identity_section,
    make_global_rado,
    n_omega,
    nagata_mul,
    nagata_pow,
    no_global_power_witness,
)

from independent_oracles import (
    bench,
    loglog_flatness_slope,
    numeric_weierstrass_coeffs,
    random_vanishing_germ,
    root_bound_by_sampling,
    root_bound_tolerance,
)


@contextmanager
def criterion(number: int, label: str, budget: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\n[FAIL] {number:2d}. {label}: {elapsed:.2f}s (budget {budget:.0f}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget
    print(f"\n[{'PASS' if ok else 'FAIL'}] {number:2d}. {label}: "
          f"{elapsed:.2f}s (budget {budget:.0f}s)")
    assert ok, f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.2f}s"


def coprime_pairs(limit: int, ordered: bool = True):
    """All coprime (p, q) with 2 <= p, q <= limit and p != q."""
    for p in range(2, limit + 1):
        for q in range(2, limit + 1):
            if p != q and gcd(p, q) == 1 and (ordered or p < q):
                yield p, q


def test_c01_semigroup_oracle_equivalence():
    with criterion(1, "semigroup oracle equivalence", 10.0):
        for p, q in coprime_pairs(30, ordered=False):
            s = NumericalSemigroup(p, q)
            c = s.conductor()
            assert c == (p - 1) * (q - 1)
            window = 2 * p * q
            table = bench.membership(p, q, max(2000, c + window))
            for n in range(2001):
                assert s.contains(n) == bool(table[n]), (p, q, n)
            # The conductor is the least N with [N, N + 2pq] inside S and
            # N - 1 outside.  N = c qualifies by the next two lines; any
            # 0 <= N < c fails because its window contains the non-member
            # c - 1 (N <= c - 1 always, and c - 1 <= N + 2pq by the third).
            assert not table[c - 1]
            assert all(table[n] for n in range(c, c + window + 1))
            assert c - 1 <= window


def test_c02_unit_order_germ_power_bound():
    with criterion(2, "unit-order germ power bound", 5.0):
        powers: dict[int, LaurentGerm] = {}

        def t_to(k: int) -> LaurentGerm:
            germ = powers.get(k)
            if germ is None:
                germ = powers[k] = LaurentGerm.monomial(k)
            return germ

        for p, q in coprime_pairs(30):
            curve = CuspCurve(p, q)
            h = curve.rado_germ()
            assert h.pullback == t_to(1)
            c = (p - 1) * (q - 1)
            # Every power from the conductor through a full 2pq window is
            # holomorphic; beyond the window membership follows from closure
            # under +p (the window already holds p consecutive members).
            for k in range(c, c + 2 * p * q + 1):
                assert curve.is_holomorphic_at_cusp(t_to(k)).is_yes, (p, q, k)
            assert curve.is_holomorphic_at_cusp(t_to(p)).is_yes
            assert curve.is_holomorphic_at_cusp(t_to(q)).is_yes
            assert curve.is_holomorphic_at_cusp(t_to(c - 1)).is_no


def test_c03_tower_curve_properties():
    with criterion(3, "tower curve unit-order germ properties", 5.0):
        for k in range(2, 51):
            curve = CuspCurve(k, k + 1)
            h = curve.rado_germ()
            assert (h.m, h.n) == (1, 1)
            assert curve.is_weakly_holomorphic(h.pullback).is_yes
            assert curve.is_holomorphic_at_cusp(h.pullback ** (k - 1)).is_no
            lifted = LaurentGerm.monomial(curve.pullback_monomial(k - 1, 0)) * h.pullback
            assert lifted == LaurentGerm.monomial(k * k)
            assert curve.pullback_monomial(0, k) == k * k
            assert curve.is_holomorphic_at_cusp(lifted).is_yes


def test_c04_no_global_power_witness():
    with criterion(4, "glued-curve failing-power witness", 5.0):
        curve = SurgeryCurve.build_standard(101)
        section = make_global_rado(curve)
        for n in range(1, 101):
            k = no_global_power_witness(curve, n, section)
            assert k == n + 1
            assert curve.site(k).decision_for_power(section.germ_at(k), n).is_no


def test_c05_uniform_region_power_bound():
    with criterion(5, "uniform region power bound with sharpness", 60.0):
        curve = SurgeryCurve.build_standard(12)
        rng = Random(20260818)
        t = LaurentGerm.monomial(1)
        for region_max in range(2, 13):
            bound = n_omega(curve, region_max)
            assert bound == (region_max - 1) * region_max
            for site in curve.sites:
                if site.index > region_max:
                    break
                holomorphic = site.curve.is_holomorphic_at_cusp
                for _ in range(1000):
                    u = random_vanishing_germ(rng, max_width=4)
                    assert u.lowest_exponent() >= 1
                    power = u ** bound
                    assert holomorphic(power).is_yes
                    for _ in range(10):
                        power = power * u
                        assert holomorphic(power).is_yes
            assert curve.site(region_max).decision_for_power(t, bound).is_yes
            # sharpness: one power below the bound fails at the top site
            assert curve.site(region_max).decision_for_power(t, bound - 1).is_no


def test_c06_floor_condition_soundness():
    with criterion(6, "floor multiplier condition soundness", 10.0):
        missed = 0
        checked = 0
        for p, q in coprime_pairs(12):
            curve = CuspCurve(p, q)
            for a in range(51):
                for b in range(51):
                    floor_ok = curve.floor_multiplier_check(a, b)
                    exact_ok = curve.exact_multiplier_check(a, b)
                    assert not floor_ok or exact_ok, (p, q, a, b)
                    if exact_ok and not floor_ok:
                        missed += 1
                    checked += 1
        print(f"\n    floor-false/exact-true pairs: {missed} of {checked} checked",
              end="")


def test_c07_weak_generation():
    with criterion(7, "weak monomial generation", 5.0):
        for p, q in coprime_pairs(20):
            curve = CuspCurve(p, q)
            report = curve.weak_generation_report()
            r = min(p, q) - 1
            top = (p - 1) * (q - 1) + r
            assert report.generator_power_max == r
            assert report.checked_up_to == top
            assert report.generates is True
            # independent recheck against the enumeration table
            table = bench.membership(p, q, top)
            for e in range(top + 1):
                assert any(table[e - j] for j in range(min(r, e) + 1)), (p, q, e)


def test_c08_weierstrass_polynomials():
    with criterion(8, "Weierstrass annihilating polynomials", 10.0):
        z0 = 0.37 + 0.21j
        for d in range(2, 13):
            for e in range(1, 13):
                poly = WeierstrassPoly.for_monomial(d, e)
                assert poly.degree == d
                assert poly.annihilates_pullback()
                closed = poly.coefficients_at(z0)
                numeric = numeric_weierstrass_coeffs(d, e, z0)
                assert len(closed) == len(numeric) == d + 1
                worst = max(abs(a - b) for a, b in zip(closed, numeric))
                assert worst <= 1e-9, (d, e, worst)
                report = poly.root_bound_check()
                assert report.stable, (d, e, report)
                sampled = root_bound_by_sampling(poly)
                tol = root_bound_tolerance(poly)
                assert abs(report.constant - sampled.constant) <= tol * report.constant
                assert abs(report.worst_ratio - sampled.worst_ratio) <= tol * report.worst_ratio
        assert CuspCurve(3, 4).weierstrass(2).factored_str() == "T^3 - z^2"


def test_c09_order_of_flatness():
    with criterion(9, "order of flatness", 10.0):
        radii = [1e-3, 1e-4, 1e-5, 1e-6]
        rng = Random(1234)
        for p, q in coprime_pairs(12):
            curve = CuspCurve(p, q)
            d = min(p, q)
            assert curve.order_of_flatness(curve.rado_germ().pullback) == Fraction(1, d)
            slope = loglog_flatness_slope(1, p, q, radii)
            assert abs(slope - 1 / d) <= 0.02 / d, (p, q, slope)
            for _ in range(200):
                germ = LaurentGerm.monomial(rng.randint(1, 60))
                assert curve.order_of_flatness(germ) >= Fraction(1, d)


def test_c10_dual_number_extension():
    with criterion(10, "dual-number section extension", 5.0):
        inverse = identity_section(LaurentObject.monomial(-1))
        assert inverse.extends_across_origin() is False
        for k in range(2, 101):
            # the library reports these powers as extendable; the nilpotent
            # part of sigma^k is k*z^(k-2), regular at the origin for k >= 2
            assert nagata_pow(inverse, k).extends_across_origin() is True
        essential = identity_section(LaurentObject.essential_unit())
        for k in range(1, 101):
            assert nagata_pow(essential, k).extends_across_origin() is False
        for section in (inverse, essential):
            iterated = section
            for k in range(2, 51):
                iterated = nagata_mul(iterated, section)
                assert iterated == nagata_pow(section, k)
