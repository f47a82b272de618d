"""Cusp curve invariants: holomorphy decisions, powers, flatness, Weierstrass."""

import math
from fractions import Fraction
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspgerms import (
    CuspCurve,
    GaussianRational,
    LaurentGerm,
    Site,
    UndecidableAtTruncation,
    WeierstrassPoly,
    parse_germ,
)
from independent_oracles import (
    dominant_axis_by_sampling,
    loglog_flatness_slope,
    min_power_scan,
    numeric_weierstrass_coeffs,
    root_bound_by_sampling,
    root_bound_tolerance,
    stable_power_scan,
    weak_generation_scan,
)

T = LaurentGerm.monomial(1)


def lazy_decision(curve: CuspCurve, f: LaurentGerm, n: int):
    """The decision of f ** n at the cusp, by a walk of its terms."""
    return f.exponents_within(curve.semigroup.contains, curve.semigroup.conductor(), n)


def coprime_curves(limit: int) -> list[CuspCurve]:
    return [
        CuspCurve(p, q)
        for p in range(2, limit + 1)
        for q in range(2, limit + 1)
        if p != q and math.gcd(p, q) == 1
    ]


# -- construction ----------------------------------------------------------------


def test_rejects_bad_parameters():
    for p, q in [(4, 6), (2, 2), (1, 3), (0, 5)]:
        with pytest.raises(ValueError):
            CuspCurve(p, q)


def test_shared_semigroups_are_keyed_by_type():
    # curves of one shape share a semigroup from a cache keyed by value and
    # type, so a value equal to a cached key but of another type still raises
    assert CuspCurve(2, 3).semigroup is CuspCurve(2, 3).semigroup
    with pytest.raises(TypeError):
        CuspCurve(2.0, 3)
    with pytest.raises(TypeError):
        CuspCurve(2, 3.0)
    with pytest.raises(ValueError):
        CuspCurve(True, 3)


def test_a_refused_shape_is_refused_on_every_call():
    # a call that raises leaves nothing in the cache
    for _ in range(3):
        with pytest.raises(ValueError, match="coprime"):
            CuspCurve(4, 6)
        with pytest.raises(ValueError, match=">= 2"):
            CuspCurve(1, 3)


def test_spec_string_round_trip():
    c = CuspCurve.from_spec("gamma:3,4")
    assert (c.p, c.q) == (3, 4)
    assert c.spec_str() == "gamma:3,4"
    for bad in ["gamma:3", "3,4", "gamma:a,b", "delta:2,3", "gamma:2,3,4"]:
        with pytest.raises(ValueError):
            CuspCurve.from_spec(bad)


# -- pullbacks --------------------------------------------------------------------


def test_pullback_monomial_examples():
    c = CuspCurve(2, 3)
    assert c.pullback_monomial(1, 0) == 3
    assert c.pullback_monomial(0, 1) == 2
    assert c.pullback_monomial(-1, 1) == -1
    for k in range(2, 13):
        ck = CuspCurve(k, k + 1)
        assert ck.pullback_monomial(k - 1, 0) + 1 == k * k
        assert ck.pullback_monomial(0, k) == k * k


def test_rado_germ_examples():
    assert (CuspCurve(2, 3).rado_germ().m, CuspCurve(2, 3).rado_germ().n) == (1, 1)
    assert (CuspCurve(2, 5).rado_germ().m, CuspCurve(2, 5).rado_germ().n) == (1, 2)
    for k in range(2, 13):
        r = CuspCurve(k, k + 1).rado_germ()
        assert (r.m, r.n) == (1, 1)
    assert CuspCurve(5, 7).rado_germ().pullback == T


@given(st.tuples(st.integers(2, 40), st.integers(2, 40)).filter(
    lambda pq: pq[0] != pq[1] and math.gcd(*pq) == 1))
@settings(max_examples=150)
def test_rado_germ_invariants(pq):
    p, q = pq
    r = CuspCurve(p, q).rado_germ()
    assert r.m * q - r.n * p == 1
    assert 1 <= r.m <= p
    assert r.n >= 1 or (r.n == 0 and q == 1)


# -- holomorphy decisions -----------------------------------------------------------


def test_holomorphy_examples():
    c = CuspCurve(2, 3)
    assert c.is_holomorphic_at_cusp(T).is_no
    assert c.is_holomorphic_at_cusp(T ** 2).is_yes
    for k in range(2, 51):
        ck = CuspCurve(k, k + 1)
        assert ck.is_holomorphic_at_cusp(T ** (k - 1)).is_no


def test_weak_holomorphy_examples():
    for k in range(2, 13):
        assert CuspCurve(k, k + 1).is_weakly_holomorphic(T).is_yes
    c = CuspCurve(2, 3)
    assert c.is_weakly_holomorphic(LaurentGerm.monomial(-1)).is_no
    assert c.is_weakly_holomorphic(parse_germ("1 + t^3")).is_yes


def test_ambient_restrictions_are_holomorphic():
    for c in coprime_curves(12):
        for a in range(0, 21, 5):
            for b in range(0, 21, 5):
                e = c.pullback_monomial(a, b)
                assert c.is_holomorphic_at_cusp(LaurentGerm.monomial(e)).is_yes


def test_holomorphy_witness():
    c = CuspCurve(3, 4)
    assert c.holomorphy_witness(T) == 1
    assert c.holomorphy_witness(parse_germ("t^3 + t^5")) == 5
    assert c.holomorphy_witness(T ** 3) is None


def test_decision_with_tail_at_conductor():
    c = CuspCurve(2, 3)
    assert c.is_holomorphic_at_cusp(LaurentGerm.tail_only(5)).is_yes
    assert c.is_holomorphic_at_cusp(parse_germ("t^2 + O(t^2000)")).is_yes
    assert c.is_holomorphic_at_cusp(parse_germ("1 + O(t^1)")).is_unknown


# -- minimal and stable powers --------------------------------------------------------


def test_min_power_examples():
    assert CuspCurve(2, 3).min_power(T) == 2
    assert CuspCurve(3, 4).min_power(T) == 3
    for p, q in [(2, 3), (3, 4), (5, 7)]:
        c = CuspCurve(p, q)
        assert c.min_power(LaurentGerm.monomial(p)) == 1
    # first certified power even when smaller powers are undecided
    assert CuspCurve(2, 3).min_power(parse_germ("t + O(t^3)")) == 2


def test_min_power_of_a_tail_only_germ_needs_no_scan(monkeypatch):
    def refuse(*args):
        raise AssertionError("power scanned")

    monkeypatch.setattr(LaurentGerm, "power_kinds", refuse)
    monkeypatch.setattr(LaurentGerm, "_power_walk", refuse)
    c = CuspCurve(1001, 1002)
    cap = c.semigroup.conductor()
    # O(t^T)^n = O(t^(nT)) is yes from nT >= c on
    assert c.min_power(LaurentGerm.tail_only(1)) == cap
    assert c.min_power(LaurentGerm.tail_only(7)) == -(-cap // 7)
    assert c.min_power(LaurentGerm.tail_only(cap)) == 1
    assert c.min_power(LaurentGerm.tail_only(cap + 5)) == 1
    for tail in (0, -1):
        with pytest.raises(UndecidableAtTruncation,
                           match="^power 1 undecidable at the germ's truncation$"):
            c.min_power(LaurentGerm.tail_only(tail))


def test_min_power_errors():
    c = CuspCurve(2, 3)
    with pytest.raises(ValueError):
        c.min_power(LaurentGerm.zero())
    with pytest.raises(ValueError):
        c.min_power(LaurentGerm.monomial(-1))
    with pytest.raises(ValueError):
        c.min_power(parse_germ("1 + t"))  # t-coefficient never dies
    with pytest.raises(UndecidableAtTruncation):
        CuspCurve(5, 7).min_power(parse_germ("1 + O(t^1)"))


def test_power_dichotomy_for_unit_order_germ():
    for c in coprime_curves(9):
        s = c.semigroup
        for k in range(1, s.conductor() + 2 * c.p):
            assert c.is_holomorphic_at_cusp(T ** k).is_yes == s.contains(k)
        assert c.is_holomorphic_at_cusp(T ** c.p).is_yes
        assert c.is_holomorphic_at_cusp(T ** c.q).is_yes


def test_stable_power_examples():
    assert CuspCurve(2, 3).stable_power(T) == 2
    for k in range(2, 9):
        assert CuspCurve(k, k + 1).stable_power(T) == k * (k - 1)
    for p, q in [(2, 3), (3, 4), (5, 7)]:
        assert CuspCurve(p, q).stable_power(LaurentGerm.monomial(p)) == 1


def test_stable_power_with_tail_and_unit():
    c = CuspCurve(5, 7)
    assert c.stable_power(parse_germ("t + O(t^30)")) == 24
    assert c.stable_power(LaurentGerm.one()) == 1
    assert c.stable_power(parse_germ("1 + t^5")) == 1
    with pytest.raises(UndecidableAtTruncation):
        c.stable_power(parse_germ("1 + O(t^1)"))
    with pytest.raises(UndecidableAtTruncation):
        c.stable_power(LaurentGerm.tail_only(3))
    with pytest.raises(ValueError):
        c.stable_power(LaurentGerm.zero())


def test_stable_power_unit_with_gap():
    # 1 + t^5 + t^7 on the (5,7) cusp: every power stays supported in <5,7>
    c = CuspCurve(5, 7)
    assert c.stable_power(parse_germ("1 + t^5 + t^7")) == 1
    # 1 + t has failing powers forever; the scan reports the cap was hit
    with pytest.raises(ValueError):
        c.stable_power(parse_germ("1 + t"))


def test_gap_led_unit_answered_without_a_scan(monkeypatch):
    def no_products(self, other):
        raise AssertionError("a gap-led unit needs no germ products")

    monkeypatch.setattr(LaurentGerm, "__mul__", no_products)
    c = CuspCurve(101, 102)
    f = parse_germ("1 + t + O(t^200)")
    with pytest.raises(ValueError) as min_exc:
        c.min_power(f)
    assert str(min_exc.value) == "no power up to the conductor 10100 is holomorphic"
    with pytest.raises(ValueError) as stable_exc:
        c.stable_power(f)
    assert str(stable_exc.value) == "no stable power found up to 20402"
    # the certificate looks at the exponent after 0, wherever the tail is
    for text in ("3 - 1/2*t^2 + t^3", "(1,1) + (0,2)*t^4 + O(t^5)"):
        with pytest.raises(ValueError, match="no stable power found up to 59"):
            CuspCurve(5, 7).stable_power(parse_germ(text))
    # a unit led by a member but carrying a later gap, an undecidable unit
    # and a member-only unit are answered from f's own decision as well
    c = CuspCurve(31, 32)
    f = parse_germ("1 + t^31 + t^33 + O(t^2000)")
    with pytest.raises(ValueError, match="^no power up to the conductor 930 is holomorphic$"):
        c.min_power(f)
    with pytest.raises(ValueError, match="^no stable power found up to 1922$"):
        c.stable_power(f)
    f = parse_germ("1 + t^31 + t^62")
    assert c.min_power(f) == c.stable_power(f) == 1
    c = CuspCurve(101, 102)
    f = parse_germ("1 + t^101 + O(t^200)")
    with pytest.raises(UndecidableAtTruncation,
                       match="^power 1 undecidable at the germ's truncation$"):
        c.min_power(f)
    with pytest.raises(UndecidableAtTruncation,
                       match="^no certified run of holomorphic powers up to 20402$"):
        c.stable_power(f)


def _outcome(fn, curve, f):
    """The value, or the exception's type and message."""
    try:
        return fn(curve, f)
    except (ValueError, UndecidableAtTruncation) as exc:
        return type(exc), str(exc)


SMALL_CURVES = [CuspCurve(p, q) for p, q in
                [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (2, 7), (3, 7)]]
pairs = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.one_of(st.just(0), st.fractions(min_value=-2, max_value=2, max_denominator=3)),
).filter(lambda c: c != (0, 0))


@st.composite
def curve_and_germ(draw, kinds=("tail", "vanishing", "gap-led", "member-led", "negative")):
    """A small curve and a germ on it: tail-only (negative or not), vanishing,
    or a unit led by a gap or by a member, exact or truncated, with Gaussian
    coefficients."""
    curve = draw(st.sampled_from(SMALL_CURVES))
    c = curve.semigroup.conductor()
    kind = draw(st.sampled_from(kinds))
    if kind == "tail":
        return curve, LaurentGerm.tail_only(draw(st.integers(-4, c + 3)))
    if kind in ("gap-led", "member-led"):
        want_member = kind == "member-led"
        firsts = [e for e in range(1, c + 4) if curve.semigroup.contains(e) == want_member]
        terms = {0: draw(pairs), draw(st.sampled_from(firsts)): draw(pairs)}
    else:
        terms = {draw(st.integers(1, 8) if kind == "vanishing" else st.integers(-3, -1)):
                 draw(pairs)}
    lo, first = min(terms), max(terms)
    extra = draw(st.dictionaries(st.integers(first + 1, first + 4), pairs, max_size=3))
    terms |= extra
    tail = draw(st.one_of(st.none(), st.integers(first + 1, first + c + 4)))
    germ = LaurentGerm({e: GaussianRational(re, im) for e, (re, im) in terms.items()}, tail)
    assert germ.lowest_exponent() == lo
    return curve, germ


@given(curve_and_germ())
@settings(max_examples=200, deadline=None)  # the uncapped scans are the slow side
def test_capped_power_scans_match_uncapped_scans(data):
    curve, f = data
    assert _outcome(CuspCurve.min_power, curve, f) == _outcome(min_power_scan, curve, f)
    assert _outcome(CuspCurve.stable_power, curve, f) == _outcome(stable_power_scan, curve, f)


@given(curve_and_germ(kinds=("gap-led", "member-led")))
@settings(max_examples=100)
def test_every_power_of_a_unit_decides_like_the_unit(data):
    curve, f = data
    decision = curve.is_holomorphic_at_cusp(f)
    for n in range(1, 9):
        power = curve.is_holomorphic_at_cusp(f ** n)
        assert power == decision
        assert power.witness == decision.witness  # not part of ==


@st.composite
def cancelling_germ(draw):
    """A small curve and t^lo * (1 + a*t + b*t^2 + ...) with b = -(m-1)/2 * a^2,
    so that the t^(m*lo + 2) coefficient of the m-th power, m*b + C(m,2)*a^2,
    cancels."""
    curve = draw(st.sampled_from(SMALL_CURVES))
    lo = draw(st.integers(1, 4))
    m = draw(st.integers(2, 12))
    a = GaussianRational(*draw(pairs))
    x, y = a.re, a.im
    h = Fraction(-(m - 1), 2)
    b = GaussianRational(h * (x * x - y * y), h * 2 * x * y)  # h * a^2
    terms = {lo: GaussianRational(1), lo + 1: a, lo + 2: b}
    extra = draw(st.dictionaries(st.integers(lo + 3, lo + 6), pairs, max_size=2))
    terms |= {e: GaussianRational(re, im) for e, (re, im) in extra.items()}
    tail = draw(st.one_of(st.none(), st.integers(lo + 3, lo + 12)))
    return curve, LaurentGerm(terms, tail)


@given(st.one_of(curve_and_germ(), cancelling_germ()), st.integers(2, 6))
@settings(max_examples=150, deadline=None)  # f ** n is the slow side
def test_power_decision_is_the_decision_of_the_power(data, k):
    # on the drawn curve, and at the surgery site k through Site.decision_for_power
    curve, f = data
    site = Site(k)
    for n in range(13):
        power = f ** n
        for lazy, full in ((lazy_decision(curve, f, n), curve.is_holomorphic_at_cusp(power)),
                           (site.decision_for_power(f, n),
                            site.curve.is_holomorphic_at_cusp(power))):
            assert (lazy.kind, lazy.reason, lazy.witness) == (full.kind, full.reason, full.witness)


def test_power_decision_examples():
    c = CuspCurve(3, 5)  # gaps 1, 2, 4, 7; conductor 8
    # t^5 (1 + t - 2t^2)^5 = t^5 (1 + 5t + 0t^2 - 30t^3 + ...): the gap 7 cancels
    f = parse_germ("t + t^2 - 2*t^3")
    assert (f ** 5).coefficient(7) == GaussianRational(0)
    assert lazy_decision(c, f, 5).is_yes
    # t^4 is the first stored gap of (t^2 + t^3)^2; the tail of (t^3 + O(t^4))^2 is 7
    assert lazy_decision(c, parse_germ("t^2 + t^3"), 2).witness == 4
    assert str(lazy_decision(c, parse_germ("t^3 + O(t^4)"), 2)) == (
        "Unknown(terms hidden beyond O(t^7) may violate the test)")
    assert lazy_decision(c, parse_germ("t^3 + O(t^4)"), 3).is_yes
    # O(t^T)^n is O(t^(nT))
    assert lazy_decision(c, LaurentGerm.tail_only(3), 2).is_unknown
    assert lazy_decision(c, LaurentGerm.tail_only(3), 3).is_yes
    assert lazy_decision(c, LaurentGerm.tail_only(-1), 5).is_unknown


def test_negative_power_decision_refuses_like_pow():
    # the inverses of t + t^2 and 1 + t carry the gap t^1 of <2, 3>; a
    # decision of f^-1 must refuse as f ** -1 does, never answer yes
    c = CuspCurve(2, 3)
    for text in ("t + t^2", "1 + t", "O(t^3)"):
        f = parse_germ(text)
        with pytest.raises(ValueError) as by_pow:
            f ** -1
        assert str(by_pow.value) == "germ power must be >= 0, got -1"
        for decide in (partial(lazy_decision, c), Site(3).decision_for_power):
            with pytest.raises(ValueError) as by_decision:
                decide(f, -1)
            assert str(by_decision.value) == str(by_pow.value)


def test_min_power_scan_starts_where_the_tail_can_reach_the_conductor(monkeypatch):
    calls = []
    kinds = LaurentGerm.power_kinds

    def counted(self, *args):
        for n, kind in kinds(self, *args):
            calls.append(n)
            yield n, kind

    monkeypatch.setattr(LaurentGerm, "power_kinds", counted)
    c = CuspCurve(31, 32)  # conductor 930
    # f^n is at best unknown while its tail n - 1 + 50 is below 930
    assert c.min_power(parse_germ("t + t^2 + O(t^50)")) == 930
    assert calls == list(range(881, 930))
    # an exact germ scans from 1
    calls.clear()
    assert CuspCurve(2, 3).min_power(parse_germ("t + t^2")) == 2
    assert calls == [1]


def test_vanishing_germ_scans_build_no_power(monkeypatch):
    f = parse_germ("t + t^2")

    def refuse(*args):
        raise AssertionError("a germ was built by arithmetic")

    for op in ("__mul__", "__pow__", "__add__"):
        monkeypatch.setattr(LaurentGerm, op, refuse)
    c = CuspCurve(41, 42)
    assert c.min_power(f) == 1640
    assert c.stable_power(f) == 1640


@st.composite
def coherent_germ(draw):
    """A small curve and a vanishing germ whose coefficients are positive
    rational multiples of one Gaussian number, so no power can cancel."""
    curve = draw(st.sampled_from(SMALL_CURVES))
    lo = draw(st.integers(1, 6))
    re, im = draw(pairs)
    exponents = [lo, *sorted(draw(st.sets(st.integers(lo + 1, lo + 12), max_size=4)))]
    scales = draw(st.lists(st.fractions(min_value=Fraction(1, 3), max_value=4),
                           min_size=len(exponents), max_size=len(exponents)))
    terms = {e: GaussianRational(r * re, r * im) for e, r in zip(exponents, scales)}
    tail = draw(st.one_of(st.none(), st.integers(exponents[-1] + 1, exponents[-1] + 20)))
    return curve, LaurentGerm(terms, tail)


@given(st.one_of(curve_and_germ(kinds=("vanishing",)), coherent_germ(), cancelling_germ()),
       st.data())
@settings(max_examples=200, deadline=None)
def test_power_kinds_match_power_decision(germ_on_curve, data):
    # every power that a scan can read, up and down, from any start, and
    # powers in any order: shuffled, or crossing back and forth with repeats
    curve, f = germ_on_curve
    c = curve.semigroup.conductor()
    top = -(-c // f.lowest_exponent()) - 1
    expected = {n: lazy_decision(curve, f, n).kind for n in range(1, top + 1)}
    start = data.draw(st.integers(1, top + 1))
    shuffled = data.draw(st.permutations(range(1, top + 1)))
    for powers in (range(1, top + 1), range(top, 0, -1), range(start, top + 1),
                   range(start - 1, 0, -1), shuffled, [top, 1, top, 1] if top else []):
        assert list(f.power_kinds(curve.semigroup, powers)) == [(n, expected[n]) for n in powers]


def test_power_kinds_match_power_decision_on_a_grid():
    # every germ t^lo * (1 + t^a + t^b) with small exponents, exact or
    # truncated: the boundary where one bitset starts to answer every power
    # falls at a different power for each
    for curve in [CuspCurve(3, 5), CuspCurve(4, 5), CuspCurve(3, 7), CuspCurve(5, 7)]:
        c = curve.semigroup.conductor()
        for lo in range(1, 6):
            top = -(-c // lo) - 1
            for offsets in [(), *combinations(range(1, 7), 1), *combinations(range(1, 7), 2)]:
                for tail in (None, lo + 7, lo + 11):
                    f = LaurentGerm({lo + k: 1 for k in (0, *offsets)}, tail)
                    up, down = range(1, top + 1), range(top, 0, -1)
                    expected = [(n, lazy_decision(curve, f, n).kind) for n in up]
                    assert list(f.power_kinds(curve.semigroup, up)) == expected
                    assert list(f.power_kinds(curve.semigroup, down)) == expected[::-1]


def test_a_hit_of_a_cancelling_germ_counts_only_once_the_walk_confirms_it():
    c = CuspCurve(3, 7)  # gaps 1, 2, 4, 5, 8, 11; conductor 12
    f = parse_germ("t^3 + 2*t^4 - 2*t^5")
    # f^2 stores no t^8, though 8 = 6 + 2 lies in the sumset bound of f^2
    assert f ** 2 == parse_germ("t^6 + 4*t^7 - 8*t^9 + 4*t^10")
    kinds = f.power_kinds(c.semigroup, range(1, 4))
    assert list(kinds) == [(1, "no"), (2, "yes"), (3, "no")]
    assert lazy_decision(c, f, 2).is_yes


def _walked_powers(monkeypatch) -> list[int]:
    """The powers that `exponents_within` decides from now on, by a walk
    (or, for power 1, by reading the stored terms)."""
    walked: list[int] = []
    decide = LaurentGerm.exponents_within

    def counted(self, predicate, holds_from=None, power=1):
        walked.append(power)
        return decide(self, predicate, holds_from, power)

    monkeypatch.setattr(LaurentGerm, "exponents_within", counted)
    return walked


def test_power_scans_of_a_germ_that_cannot_cancel_walk_no_power(monkeypatch):
    # two terms, or terms that are positive multiples of one Gaussian number
    small = CuspCurve(5, 7)
    germs = [parse_germ(text) for text in
             ("t - t^2", "t + (0,1)*t^2 + O(t^30)", "(1,1)*t^2 + (2,2)*t^3 + (1/2,1/2)*t^7")]
    want = [(min_power_scan(small, f), stable_power_scan(small, f)) for f in germs]

    def refuse(*args):
        raise AssertionError("a power was decided by a walk")

    monkeypatch.setattr(LaurentGerm, "_power_walk", refuse)
    c = CuspCurve(31, 32)
    assert c.min_power(parse_germ("t + t^2")) == c.stable_power(parse_germ("t + t^2")) == 930
    assert [(small.min_power(f), small.stable_power(f)) for f in germs] == want


def test_power_scans_of_a_cancelling_germ_walk_only_the_flagged_powers(monkeypatch):
    c = CuspCurve(4, 5)  # gaps 1, 2, 3, 6, 7, 11; conductor 12
    walked = _walked_powers(monkeypatch)
    # t^4 + t^5 - t^8 can cancel, but the sumset bounds of f and f^2, 4 + {0, 1, 4}
    # and 8 + {0, 1, 2} below 12, hold only members
    f = parse_germ("t^4 + t^5 - t^8")
    assert (c.min_power(f), c.stable_power(f)) == (1, 1)
    assert walked == []
    # every power of t + t^2 - t^3 below 12 has a gap in its bound; the walk
    # finds that the t^11 of f^8 cancels, and f^8 is yes
    f = parse_germ("t + t^2 - t^3")
    assert c.min_power(f) == 8
    assert walked == list(range(1, 9))
    walked.clear()
    assert c.stable_power(f) == 12
    assert walked == [11]


def test_stable_power_bounds_all_later_powers():
    for p, q in [(2, 3), (3, 4), (4, 5), (5, 7)]:
        c = CuspCurve(p, q)
        n0 = c.stable_power(T)
        for n in range(n0, n0 + 2 * p * q):
            assert c.is_holomorphic_at_cusp(T ** n).is_yes
        assert c.is_holomorphic_at_cusp(T ** (n0 - 1)).is_no


# -- multiplier conditions -------------------------------------------------------------


def test_floor_multiplier_examples():
    for k in range(2, 13):
        ck = CuspCurve(k, k + 1)
        assert ck.floor_multiplier_check(k - 1, 0)
        assert ck.exact_multiplier_check(k - 1, 0)
        assert not ck.floor_multiplier_check(0, 0)
    with pytest.raises(ValueError):
        CuspCurve(2, 3).floor_multiplier_check(-1, 0)
    with pytest.raises(ValueError):
        CuspCurve(2, 3).exact_multiplier_check(0, -2)


def test_floor_condition_sound_on_small_grid():
    mismatches = []
    for c in coprime_curves(8):
        for a in range(0, 51):
            for b in range(0, 51):
                if c.floor_multiplier_check(a, b):
                    assert c.exact_multiplier_check(a, b), (c.p, c.q, a, b)
                elif c.exact_multiplier_check(a, b):
                    mismatches.append((c.p, c.q, a, b))
    # incompleteness cases are reported, not failed
    print(f"floor-false/exact-true pairs: {len(mismatches)}")


# -- weak generation -----------------------------------------------------------------


def test_weak_generator_count_examples():
    assert CuspCurve(2, 3).weak_generator_count() == 1
    assert CuspCurve(5, 7).weak_generator_count() == 4
    for k in range(2, 13):
        assert CuspCurve(k, k + 1).weak_generator_count() == k - 1


def test_weak_generation_report():
    rep = CuspCurve(5, 7).weak_generation_report()
    assert rep.generator_power_max == 4
    assert rep.checked_up_to == 24 + 4
    assert rep.generates
    assert not rep.one_fewer_suffices
    rep23 = CuspCurve(2, 3).weak_generation_report()
    assert rep23.generates and not rep23.one_fewer_suffices


def test_weak_generation_report_matches_scan_oracle():
    curves = coprime_curves(39)
    assert len(curves) == 870
    for c in curves:
        assert c.weak_generation_report() == weak_generation_scan(c), (c.p, c.q)


def test_weak_generation_all_small_curves():
    for c in coprime_curves(12):
        assert c.weak_generation_report().generates, (c.p, c.q)


# -- covering, cone, flatness -----------------------------------------------------------


def test_covering_degree_examples():
    assert CuspCurve(2, 3).covering_degree() == (2, 2)
    assert CuspCurve(3, 2).covering_degree() == (2, 1)
    for k in range(2, 13):
        assert CuspCurve(k, k + 1).covering_degree() == (k, 2)


def test_whitney_cone_matches_sampling_oracle():
    for c in coprime_curves(12):
        assert c.whitney_cone() == dominant_axis_by_sampling(c.p, c.q)


def test_cone_meets_projection_kernel_only_at_origin():
    # kernel of the projection onto the covering axis is the other axis
    for c in coprime_curves(12):
        cover = c.covering_degree()
        kernel_axis = 1 if cover.axis == 2 else 2
        assert c.whitney_cone() != kernel_axis


def test_order_of_flatness_examples():
    assert CuspCurve(2, 3).order_of_flatness(T) == Fraction(1, 2)
    for p, q in [(2, 3), (2, 5), (3, 7)]:
        c = CuspCurve(p, q)
        assert c.order_of_flatness(LaurentGerm.monomial(p)) == 1
        assert c.order_of_flatness(T) == Fraction(1, c.covering_degree().degree)


def test_order_of_flatness_errors():
    c = CuspCurve(2, 3)
    for bad in [LaurentGerm.zero(), LaurentGerm.one(), LaurentGerm.monomial(-2),
                LaurentGerm.tail_only(4)]:
        with pytest.raises(ValueError):
            c.order_of_flatness(bad)


def test_order_of_flatness_multiplicative_and_bounded():
    for p, q in [(2, 3), (3, 4), (5, 7)]:
        c = CuspCurve(p, q)
        base = c.order_of_flatness(T)
        for n in range(1, 8):
            assert c.order_of_flatness(T ** n) == n * base
        d = c.covering_degree().degree
        for e in range(1, 30, 3):
            assert c.order_of_flatness(LaurentGerm.monomial(e)) >= Fraction(1, d)


def test_order_of_flatness_matches_loglog_sampling():
    radii = [1e-3, 1e-4, 1e-5, 1e-6]
    for p, q in [(2, 3), (3, 4), (5, 7), (7, 2)]:
        c = CuspCurve(p, q)
        for e in (1, 2, 5):
            exact = float(c.order_of_flatness(LaurentGerm.monomial(e)))
            sampled = loglog_flatness_slope(e, p, q, radii)
            assert abs(sampled - exact) <= 0.02 * exact, (p, q, e)


# -- Weierstrass polynomials ---------------------------------------------------------------


def test_weierstrass_examples():
    w = CuspCurve(2, 3).weierstrass(1)
    assert w.factored_str() == "T^2 - z"
    assert w.degree == 2 and w.multiplicity == 1
    assert w.coefficient_poly(0) == {0: 1}
    assert w.coefficient_poly(1) == {}
    assert w.coefficient_poly(2) == {1: -1}
    assert w.annihilates_pullback()

    w2 = CuspCurve(2, 5).weierstrass(2)  # d = 2, e = 2
    assert w2.factored_str() == "(T - z)^2"
    assert w2.multiplicity == 2
    assert w2.coefficient_poly(1) == {1: -2}
    assert w2.coefficient_poly(2) == {2: 1}

    w3 = CuspCurve(3, 4).weierstrass(2)  # d = 3, e = 2
    assert w3.factored_str() == "T^3 - z^2"
    assert w3.annihilates_pullback()


def test_weierstrass_rejects_bad_exponent():
    with pytest.raises(ValueError):
        CuspCurve(2, 3).weierstrass(0)


def test_weierstrass_matches_numeric_product():
    z = 0.37 + 0.22j
    for d in range(2, 13):
        for e in range(1, 13):
            w = CuspCurve(d, _coprime_partner(d)).weierstrass(e)
            got = w.coefficients_at(z)
            want = numeric_weierstrass_coeffs(d, e, z)
            assert len(got) == len(want) == d + 1
            scale = max(1.0, max(abs(c) for c in want))
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-9 * scale, (d, e)


def _coprime_partner(d: int) -> int:
    q = d + 1
    while math.gcd(d, q) != 1:
        q += 1
    return q


def test_weierstrass_annihilates_for_all_small_cases():
    for d in range(2, 13):
        for e in range(1, 13):
            assert CuspCurve(d, _coprime_partner(d)).weierstrass(e).annihilates_pullback()


def test_root_bound_check_is_stable():
    for d, e in [(2, 1), (3, 2), (5, 3), (4, 6), (6, 6), (12, 8)]:
        poly = CuspCurve(d, _coprime_partner(d)).weierstrass(e)
        report = poly.root_bound_check()
        assert report.stable, (d, e, report)
        assert report.constant > 0
        sampled = root_bound_by_sampling(poly)
        assert sampled.stable, (d, e, sampled)
        tol = root_bound_tolerance(poly)
        assert abs(report.constant - sampled.constant) <= tol * report.constant, (d, e)
        assert abs(report.worst_ratio - sampled.worst_ratio) <= tol * report.worst_ratio


def test_root_bound_check_closed_form():
    # roots of T^3 - z^2 have |T| = |z|^(2/3): ratio r^(1/3) at modulus r
    report = WeierstrassPoly.for_monomial(3, 2).root_bound_check([1e-3, 1e-6, 1e-2])
    assert report.constant == 1e-2 ** (1 / 3)
    assert report.worst_ratio == report.constant
    assert report.stable
    flat = WeierstrassPoly.for_monomial(4, 1).root_bound_check()  # |T| = |z|^(1/4)
    assert flat.constant == flat.worst_ratio == 1.0 and flat.stable
