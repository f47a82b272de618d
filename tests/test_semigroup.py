"""Two-generator numerical semigroups against literal enumeration."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspgerms import CuspCurve, NumericalSemigroup, parse_germ, semigroup
from cuspgerms import curve as curve_module
from independent_oracles import brute_contains, brute_representation

coprime_pairs = st.tuples(st.integers(2, 30), st.integers(2, 30)).filter(
    lambda pq: pq[0] != pq[1] and math.gcd(*pq) == 1
)


@pytest.mark.parametrize("p, q", [(4, 6), (2, 2), (3, 9), (10, 15)])
def test_rejects_non_coprime(p, q):
    with pytest.raises(ValueError):
        NumericalSemigroup(p, q)


@pytest.mark.parametrize("p, q", [(1, 3), (0, 5), (-2, 3), (2, 1)])
def test_rejects_generators_below_two(p, q):
    with pytest.raises(ValueError):
        NumericalSemigroup(p, q)


def test_contains_basics():
    s = NumericalSemigroup(2, 3)
    assert s.contains(0)
    assert not s.contains(1)
    assert not s.contains(-1)
    assert not s.contains(-6)
    assert all(s.contains(n) for n in (2, 3, 4, 5, 6, 7))


def test_gap_below_smaller_generator_for_consecutive_pairs():
    # k-1 is never a sum of k's and (k+1)'s
    for k in range(2, 51):
        assert not NumericalSemigroup(k, k + 1).contains(k - 1)


def test_contains_matches_brute_force_small():
    for p in range(2, 11):
        for q in range(p + 1, 11):
            if math.gcd(p, q) != 1:
                continue
            s = NumericalSemigroup(p, q)
            for n in range(0, 121):
                assert s.contains(n) == brute_contains(p, q, n), (p, q, n)


def test_conductor_examples():
    assert NumericalSemigroup(2, 3).conductor() == 2
    for k in range(2, 13):
        assert NumericalSemigroup(k, k + 1).conductor() == k * (k - 1)
    s = NumericalSemigroup(5, 7)
    assert not s.contains(23)
    assert all(s.contains(n) for n in range(24, 24 + 71))


def test_frobenius_examples():
    assert NumericalSemigroup(2, 3).frobenius() == 1
    assert NumericalSemigroup(3, 4).frobenius() == 5
    for p, q in [(2, 3), (3, 4), (5, 7), (11, 30)]:
        s = NumericalSemigroup(p, q)
        assert s.frobenius() == s.conductor() - 1
        assert not s.contains(s.frobenius())


def test_representation_examples():
    assert NumericalSemigroup(2, 3).representation(7) == (2, 1)
    assert NumericalSemigroup(2, 3).representation(1) is None
    assert NumericalSemigroup(5, 7).representation(24) == (2, 2)
    assert NumericalSemigroup(3, 5).representation(-4) is None


def test_representation_matches_brute_force_small():
    for p, q in [(2, 3), (3, 4), (2, 5), (5, 7), (7, 3)]:
        s = NumericalSemigroup(p, q)
        for n in range(0, 100):
            assert s.representation(n) == brute_representation(p, q, n), (p, q, n)


def test_equality_and_repr():
    assert NumericalSemigroup(2, 3) == NumericalSemigroup(2, 3)
    assert NumericalSemigroup(2, 3) != NumericalSemigroup(3, 2)
    assert "2" in repr(NumericalSemigroup(2, 3))


@given(coprime_pairs, st.integers(0, 2000))
@settings(max_examples=300)
def test_membership_agrees_with_modular_recheck(pq, n):
    p, q = pq
    s = NumericalSemigroup(p, q)
    # independent O(min(p,q)) recheck: some b in [0, min(p,q)) must work
    small, large = min(p, q), max(p, q)
    expected = any((n - b * large) >= 0 and (n - b * large) % small == 0
                   for b in range(small))
    assert s.contains(n) == expected


@given(coprime_pairs, st.integers(0, 500), st.integers(0, 500))
@settings(max_examples=200)
def test_closure_under_addition(pq, a, b):
    s = NumericalSemigroup(*pq)
    if s.contains(a) and s.contains(b):
        assert s.contains(a + b)


@given(coprime_pairs, st.integers(-50, 2000))
@settings(max_examples=300)
def test_representation_recomposes_and_is_consistent(pq, n):
    p, q = pq
    s = NumericalSemigroup(p, q)
    rep = s.representation(n)
    if rep is None:
        assert not s.contains(n)
    else:
        a, b = rep
        assert a >= 0 and b >= 0
        assert a * p + b * q == n
        assert s.contains(n)


@given(coprime_pairs)
@settings(max_examples=100)
def test_conductor_boundary(pq):
    s = NumericalSemigroup(*pq)
    c = s.conductor()
    assert not s.contains(c - 1)
    assert all(s.contains(c + j) for j in range(0, 2 * pq[0] * pq[1], 7))


def test_gap_mask_is_the_contains_table_below_the_conductor():
    # both generator orders, every coprime pair up to 30, and one large curve
    pairs = [(p, q) for p in range(2, 31) for q in range(p + 1, 31) if math.gcd(p, q) == 1]
    for p, q in pairs + [(301, 302)]:
        for s in (NumericalSemigroup(p, q), NumericalSemigroup(q, p)):
            table = sum(1 << e for e in range(s.conductor()) if not s.contains(e))
            assert s.gap_mask() == table, (p, q)


@given(st.lists(st.integers(1, 25), min_size=1, max_size=4), st.integers(1, 300))
@settings(max_examples=300)
def test_monoid_bits_are_the_sums_of_the_generators_below_the_width(generators, width):
    # repeats, multiples of one another and generators at or above the width
    # all arise; a DP over [0, width) marks every sum of generators
    sums = [True] + [False] * (width - 1)
    for e in range(1, width):
        sums[e] = any(g <= e and sums[e - g] for g in generators)
    assert semigroup.monoid_bits(generators, width) == sum(1 << e for e in range(width) if sums[e])


def test_gap_mask_is_built_once_per_semigroup(monkeypatch):
    # curves of one shape share one semigroup, so the mask is built once, with
    # shifts by the second generator, across the scans of two curves; the
    # cache is cleared first, since an earlier test may have built (5, 7)
    curve_module._semigroup.cache_clear()
    built = []
    doubling_shifts = semigroup.doubling_shifts

    def counted(step, count):
        built.append(step)
        return doubling_shifts(step, count)

    monkeypatch.setattr(semigroup, "doubling_shifts", counted)
    first, second = CuspCurve(5, 7), CuspCurve(5, 7)
    s = first.semigroup
    assert second.semigroup is s
    assert s.conductor() == 24
    # both scans of `curve analyze`, on each curve, read the mask of one semigroup
    f = parse_germ("t + t^2")
    for curve in (first, second):
        assert (curve.min_power(f), curve.stable_power(f)) == (24, 24)
    assert built.count(7) == 1
    assert s.gap_mask() is s.gap_mask()
    assert built.count(7) == 1
