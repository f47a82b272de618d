"""Exact truncated Laurent arithmetic: ring laws, tail propagation, grammar."""

import copy
import pickle
import sys
from fractions import Fraction
from itertools import chain, islice
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from independent_oracles import (
    reference_parse_germ,
    sympy_truncated_power,
    sympy_truncated_product,
)

from cuspgerms import (
    CERTAINLY_YES,
    CuspCurve,
    Decision,
    GaussianRational,
    GermParseError,
    LaurentGerm,
    aggregate_decisions,
    parse_germ,
)

T = LaurentGerm.monomial(1)


def germ(text: str) -> LaurentGerm:
    return parse_germ(text)


# -- coefficients -------------------------------------------------------------


def test_gaussian_rational_complex_and_str():
    assert complex(GaussianRational(1, 2)) == 1 + 2j
    assert str(GaussianRational(Fraction(1, 2))) == "1/2"
    assert str(GaussianRational(0, 1)) == "(0,1)"


def test_gaussian_rational_keeps_given_fractions():
    half = Fraction(1, 2)
    z = GaussianRational(half, half)
    assert z.re is half and z.im is half
    assert type(GaussianRational(2).re) is Fraction
    assert type(GaussianRational(2).im) is Fraction


def test_gaussian_rational_hash_eq():
    assert GaussianRational(2) == GaussianRational(Fraction(4, 2))
    assert hash(GaussianRational(2)) == hash(GaussianRational(Fraction(4, 2)))


# -- construction and normal form ----------------------------------------------


def test_zero_coefficients_never_stored():
    f = LaurentGerm({0: 1, 2: 0, 3: Fraction(0)})
    assert f.exponents() == [0]


def test_terms_at_or_beyond_tail_dropped():
    f = LaurentGerm({1: 1, 4: 1, 6: 1}, tail_bound=5)
    assert f.exponents() == [1, 4]
    assert f.tail_bound == 5


def test_duplicate_exponents_merge():
    f = LaurentGerm([(2, 1), (2, Fraction(1, 2))])
    assert f.coefficient(2) == GaussianRational(Fraction(3, 2))
    # Gaussian duplicates sum part by part, and cancel when they sum to zero
    g = LaurentGerm([(1, GaussianRational(1, 2)), (1, GaussianRational(-1, -2)),
                     (2, GaussianRational(1, 1)), (2, 1)])
    assert g == LaurentGerm({2: GaussianRational(2, 1)})
    assert g.exponents() == [2]


def test_exponents_iterate_increasing():
    f = LaurentGerm({5: 1, -2: 1, 0: 1})
    assert f.exponents() == [-2, 0, 5]


def test_zero_and_lowest_exponent():
    assert LaurentGerm.zero().is_zero()
    assert LaurentGerm.zero().lowest_exponent() is None
    assert LaurentGerm.tail_only(5).lowest_exponent() is None
    assert not LaurentGerm.tail_only(5).is_zero()
    assert germ("t^3 + t^7").lowest_exponent() == 3
    assert LaurentGerm.monomial(3).lowest_exponent() == 3  # z1 pullback on the (2,3) cusp


# -- arithmetic ----------------------------------------------------------------


def test_add_examples():
    assert T + LaurentGerm.zero() == T
    assert (T + (-T)).is_zero()
    total = germ("t + O(t^5)") + germ("t^4 + t^6")
    assert total == germ("t + t^4 + O(t^5)")


def test_add_cancels_below_tail():
    total = germ("t^2 + O(t^9)") + germ("-t^2 + t^3")
    assert total == germ("t^3 + O(t^9)")


def test_mul_examples():
    assert LaurentGerm.monomial(2) * LaurentGerm.monomial(3) == LaurentGerm.monomial(5)
    assert germ("t + O(t^6)") * germ("t + O(t^6)") == germ("t^2 + O(t^7)")
    assert germ("1 + t") * germ("1 - t") == germ("1 - t^2")
    assert (germ("1 + t^2") * germ("1 + t^3")).exponents() == [0, 2, 3, 5]


def test_mul_zero_absorbs():
    assert (germ("t + O(t^6)") * LaurentGerm.zero()).is_zero()


def test_mul_tail_uses_both_bounds():
    f = germ("t^2 + O(t^10)")
    g = germ("t^3 + O(t^4)")
    # min(2 + 4, 10 + 3) = 6
    assert (f * g).tail_bound == 6
    assert (f * g).exponents() == [5]


def test_tail_only_times_exact():
    f = LaurentGerm.tail_only(5) * LaurentGerm.monomial(2)
    assert f.tail_bound == 7
    assert f.exponents() == []


def test_pow_examples():
    assert LaurentGerm.monomial(1) ** 5 == LaurentGerm.monomial(5)
    assert germ("t + O(t^20)") ** 3 == germ("t^3 + O(t^22)")
    assert germ("1 + t") ** 2 == germ("1 + 2*t + t^2")
    assert (germ("t + O(t^5)") ** 0) == LaurentGerm.one()
    assert (germ("t + O(t^5)") ** 0).tail_bound is None


@pytest.mark.parametrize(
    "f, n, expected",
    [
        (LaurentGerm.tail_only(3), 4, LaurentGerm.tail_only(12)),
        (LaurentGerm.tail_only(3), 1, LaurentGerm.tail_only(3)),
        (LaurentGerm.tail_only(3), 0, LaurentGerm.one()),
        (LaurentGerm.zero(), 0, LaurentGerm.one()),
        (LaurentGerm.zero(), 5, LaurentGerm.zero()),
        # (1+i)^4 = -4
        (germ("(1,1)*t^2"), 4, germ("-4*t^8")),
        # t^3 (i + t)^3 = -i t^3 - 3 t^4 + 3i t^5 + t^6, known below t^(2*1 + 4)
        (germ("(0,1)*t + t^2 + O(t^4)"), 3, germ("(0,-1)*t^3 - 3*t^4 + (0,3)*t^5 + O(t^6)")),
        # t^-6 (1 + t^2)^3, known below t^(2*(-2) + 2)
        (germ("t^-2 + 1 + O(t^2)"), 3, germ("t^-6 + 3*t^-4 + O(t^-2)")),
        (germ("t^-1 - 2*t"), 2, germ("t^-2 - 4 + 4*t^2")),
        # a truncated monomial, and germs in t^4 and t^3 only
        (germ("3*t + O(t^90000)"), 50, germ(f"{3 ** 50}*t^50 + O(t^90049)")),
        (germ("t^2 + t^6 + O(t^11)"), 2, germ("t^4 + 2*t^8 + t^12 + O(t^13)")),
        (germ("1 - t^3"), 3, germ("1 - 3*t^3 + 3*t^6 - t^9")),
    ],
)
def test_pow_special_cases(f, n, expected):
    assert f ** n == expected


def test_pow_makes_no_germ_products(monkeypatch):
    f = germ("2*t + (1,1)*t^3 - 1/3*t^4 + O(t^9)")
    expected = f * f * f * f * f

    def refuse(self, other):
        raise AssertionError("germ product inside __pow__")

    monkeypatch.setattr(LaurentGerm, "__mul__", refuse)
    assert f ** 5 == expected


def test_products_powers_and_power_decisions_build_no_fraction(monkeypatch):
    # Gaussian leading coefficients, and denominators on both sides
    f = germ("(1,1)*t + 1/2*t^2 + (0,1/3)*t^4 + O(t^30)")
    g = germ("(2/3,-1)*t^2 - 3/5*t^3 + (1,1)*t^5")
    curve = CuspCurve(5, 7)
    want_product, want_power = f * g, g ** 7
    want = [curve.is_holomorphic_at_cusp(h ** n) for h in (f, g) for n in range(1, 30)]

    def refuse(*args):
        raise AssertionError("Fraction built")

    with monkeypatch.context() as patch:
        patch.setattr("cuspgerms.germ.Fraction", refuse)
        product, power = f * g, g ** 7
        have = [h.exponents_within(curve.semigroup.contains, curve.semigroup.conductor(), n)
                for h in (f, g) for n in range(1, 30)]
    assert product == want_product and power == want_power
    assert have == want
    assert [d.witness for d in have] == [d.witness for d in want]


def test_parsing_and_the_unit_order_germ_build_no_fraction(monkeypatch):
    # unreduced and signed parts, a Gaussian pair and a tail are read as ints
    want = germ("(1/2,-3)*t^2 - 3/5*t^3 + O(t^9)")
    want_rado = CuspCurve(5, 7).rado_germ()

    def refuse(*args):
        raise AssertionError("Fraction built")

    with monkeypatch.context() as patch:
        patch.setattr("cuspgerms.germ.Fraction", refuse)
        have = parse_germ("(1/2,-3)*t^2 - 3/5*t^3 + O(t^9)")
        have_unreduced = parse_germ("(2/4,-6/2)*t^2 - 6/10*t^3 + t^5 - t^5 + O(t^9)")
        rado = CuspCurve(5, 7).rado_germ()
    assert have == want and have_unreduced == want
    assert rado == want_rado and rado.pullback == T


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        T ** -1


def test_scaled_and_shifted():
    f = germ("t + 2*t^3 + O(t^5)")
    assert f.scaled(Fraction(1, 2)) == germ("1/2*t + t^3 + O(t^5)")
    assert f.scaled(0) == LaurentGerm.tail_only(5)
    assert f.shifted(2) == germ("t^3 + 2*t^5 + O(t^7)")
    # a Gaussian factor on a truncated germ
    assert (germ("t + (1,2)*t^3 + O(t^5)").scaled(GaussianRational(0, 1))
            == germ("(0,1)*t + (-2,1)*t^3 + O(t^5)"))


# -- decisions -----------------------------------------------------------------


def test_exponents_within_yes_no_unknown():
    even = lambda e: e >= 0
    assert LaurentGerm.monomial(2).exponents_within(even) == CERTAINLY_YES
    assert germ("t^-1 + t").exponents_within(even) == Decision("no")
    verdict = germ("t + O(t^5)").exponents_within(even)
    assert verdict == CERTAINLY_YES or verdict.is_unknown  # without certificate: unknown
    assert germ("t + O(t^5)").exponents_within(even, holds_from=0).is_yes


def test_tail_only_with_conductor_certificate():
    # membership in <2,3> holds for everything >= 2, so a tail at 5 is safe
    member = lambda e: e >= 0 and (e % 2 == 0 or e >= 3)
    d = LaurentGerm.tail_only(5).exponents_within(member, holds_from=2)
    assert d.is_yes


def test_stored_failure_beats_tail():
    d = germ("t + O(t^3)").exponents_within(lambda e: e >= 2)
    assert d.is_no


def test_no_decision_carries_first_failing_exponent():
    d = germ("t^-3 + t^-1 + t + O(t^5)").exponents_within(lambda e: e >= 0)
    assert d.witness == -3
    # the witness is not part of equality, hashing or rendering
    assert d == Decision("no") and hash(d) == hash(Decision("no"))
    assert str(d) == "CertainlyNo"
    assert CERTAINLY_YES.witness is None
    assert germ("t^-1 + O(t^5)").exponents_within(lambda e: e >= 0).witness == -1
    assert germ("t + O(t^5)").exponents_within(lambda e: e >= 0).witness is None


def test_decision_value_contract():
    no3, no5 = Decision("no", witness=3), Decision("no", None, 5)
    # equality and hash read kind and reason; the witness is not compared
    assert no3 == no5 and not no3 != no5
    assert hash(no3) == hash(no5) == hash(Decision("no"))
    assert no3 != CERTAINLY_YES and not no3 == CERTAINLY_YES
    assert Decision("unknown", "a") == Decision("unknown", "a") != Decision("unknown", "b")
    assert len({no3, no5, Decision("no"), CERTAINLY_YES, Decision("unknown", "a")}) == 3
    # never equal to a tuple, whatever its fields
    for other in (("no", None), ("no", None, 3), ("no",), "no"):
        assert no3 != other and not no3 == other
        assert other != no3 and not other == no3
    assert repr(no3) == "Decision(kind='no', reason=None, witness=3)"
    assert repr(Decision("unknown", "x")) == "Decision(kind='unknown', reason='x', witness=None)"
    assert (no3.kind, no3.reason, no3.witness) == ("no", None, 3)
    for name in ("kind", "reason", "witness", "other"):
        with pytest.raises(AttributeError):
            setattr(no3, name, "yes")
        with pytest.raises(AttributeError):
            delattr(no3, name)
    assert (no3.kind, no3.reason, no3.witness) == ("no", None, 3)
    for clone in (copy.copy(no3), copy.deepcopy(no3), pickle.loads(pickle.dumps(no3))):
        assert repr(clone) == repr(no3)


def test_decision_rendering_and_aggregate():
    assert str(CERTAINLY_YES) == "CertainlyYes"
    assert str(Decision("no")) == "CertainlyNo"
    assert str(Decision("unknown", "tail")) == "Unknown(tail)"
    assert aggregate_decisions([CERTAINLY_YES, CERTAINLY_YES]).is_yes
    assert aggregate_decisions([CERTAINLY_YES, Decision("unknown", "x")]).is_unknown
    assert aggregate_decisions([Decision("unknown", "x"), Decision("no")]).is_no
    assert aggregate_decisions([]).is_yes


# -- parsing and rendering -------------------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0", LaurentGerm.zero()),
        ("t", T),
        ("t^2", LaurentGerm.monomial(2)),
        ("t^-2", LaurentGerm.monomial(-2)),
        ("-t", LaurentGerm.monomial(1, -1)),
        ("3", LaurentGerm.monomial(0, 3)),
        ("1/2*t^3", LaurentGerm.monomial(3, Fraction(1, 2))),
        ("(1/2,-3)*t^2", LaurentGerm.monomial(2, GaussianRational(Fraction(1, 2), -3))),
        ("2-3*t", LaurentGerm({0: 2, 1: -3})),
        ("1 - t^4", LaurentGerm({0: 1, 4: -1})),
        ("O(t^3)", LaurentGerm.tail_only(3)),
        ("t + t^4 + O(t^5)", LaurentGerm({1: 1, 4: 1}, 5)),
        # a sign applies to both parts of a Gaussian pair
        ("-(1/2,-3)*t + t^2", LaurentGerm({1: GaussianRational(Fraction(-1, 2), 3), 2: 1})),
        ("t - (1,1)*t^2", LaurentGerm({1: 1, 2: GaussianRational(-1, -1)})),
    ],
)
def test_parse(text, expected):
    assert parse_germ(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   ",
        "t +",
        "O(t^2) + t",
        "t^5 + O(t^3)",
        "t t",
        "(1,2",
        "x + t",
        "O(t^2) + O(t^5)",
        "- O(t^4)",
        "2*",
        "*t",
        "1/0*t",
        "(1,2/0)*t",
        "1/00",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(GermParseError):
        parse_germ(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("  ", "empty germ specification"),
        ("t - O(t^4)", "tail marker cannot be subtracted"),
        ("O(t^2) + O(t^5)", "more than one tail marker"),
        ("O(t^2) + t", "terms after the tail marker"),
        ("t^5 + O(t^3)", "stored exponent 5 not below tail bound 3"),
        ("1/0*t", "zero denominator in '1/0*t'"),
        ("t + (1,2/0)", "zero denominator in '+ (1,2/0)'"),
        ("2*", "cannot read germ at ...'*'"),
        ("+t", "cannot read germ at ...'+t'"),
        ("t t", "cannot read germ at ...'t'"),
        ("t + x", "cannot read germ at ...'+ x'"),
        ("t^", "cannot read germ at ...'^'"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(GermParseError) as excinfo:
        parse_germ(text)
    assert str(excinfo.value) == message


def test_parse_refuses_a_number_longer_than_int_reads():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python converts integer strings of any length")
    for text in ("1" * (limit + 1), f"t^{'1' * (limit + 1)}", f"O(t^{'1' * (limit + 1)})"):
        with pytest.raises(GermParseError):
            parse_germ(text)


@pytest.mark.parametrize(
    "text",
    ["0", "t", "1 + t^2", "1/2*t^3 - t^4 + O(t^9)", "(1/2,-3)*t^2 + O(t^4)", "t^-1"],
)
def test_render_round_trip(text):
    f = parse_germ(text)
    assert parse_germ(f.to_str()) == f


# -- property tests ---------------------------------------------------------------

coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)
exact_germs = st.builds(
    LaurentGerm, st.dictionaries(st.integers(-5, 10), coeffs, max_size=4)
)
tailed_germs = st.builds(
    LaurentGerm,
    st.dictionaries(st.integers(-5, 10), coeffs, max_size=4),
    st.one_of(st.none(), st.integers(-3, 12)),
)


def assert_equal_below(f: LaurentGerm, g: LaurentGerm, bound: int | None) -> None:
    exps = set(f.exponents()) | set(g.exponents())
    for e in exps:
        if bound is None or e < bound:
            assert f.coefficient(e) == g.coefficient(e), e


@given(exact_germs, exact_germs, exact_germs)
@settings(max_examples=150)
def test_ring_laws_exact(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@given(tailed_germs, tailed_germs, tailed_germs)
@settings(max_examples=150)
def test_ring_laws_hold_below_tails(f, g, h):
    lhs, rhs = (f * g) * h, f * (g * h)
    bound = min(
        (b for b in (lhs.tail_bound, rhs.tail_bound) if b is not None), default=None
    )
    assert_equal_below(lhs, rhs, bound)
    lhs2, rhs2 = f * (g + h), f * g + f * h
    bound2 = min(
        (b for b in (lhs2.tail_bound, rhs2.tail_bound) if b is not None), default=None
    )
    assert_equal_below(lhs2, rhs2, bound2)


@given(tailed_germs, st.integers(0, 24))
@settings(max_examples=150, deadline=None)  # the iterated product is the slow side
def test_pow_matches_iterated_mul(f, n):
    by_mul = LaurentGerm.one()
    for _ in range(n):
        by_mul = by_mul * f
    # equality compares the tail bounds as well as the stored terms
    assert f ** n == by_mul
    assert f ** 1 == f
    assert f._power_tail(n) == by_mul.tail_bound
    # the lazy walk yields the exponents of f**n in order, and `below` cuts
    # them; for n = 1, whose decisions read the stored terms, they are f's own
    for m, power in ({1: f} if n == 0 else {1: f, n: by_mul}).items():
        exponents = [e for e, _, _ in f._power_walk(m)]
        assert exponents == power.exponents()
        cuts = exponents[::len(exponents) // 3 + 1] + [exponents[-1] + 1 if exponents else 0]
        for below in cuts:
            assert [e for e, _, _ in f._power_walk(m, below)] == [e for e in exponents if e < below]


def test_power_terms_are_computed_on_demand():
    f = germ("1 + t + O(t^1000000000)")
    # (e, k, R_k); the leading numerator is 1, so R_k is the coefficient
    first = list(islice(f._power_walk(3), 4))
    assert first == [(0, 0, (1, 0)), (1, 1, (3, 0)), (2, 2, (3, 0)), (3, 3, (1, 0))]
    # the walk ends at the degree 3 of (1 + t)^3, far below the tail
    assert f ** 3 == germ("1 + 3*t + 3*t^2 + t^3 + O(t^1000000000)")
    # and at `below`, far below the top exponent of an exact germ
    g = germ("t + t^1000000000")
    assert list(g._power_walk(2, below=4)) == [(2, 0, (1, 0))]


def test_power_walk_counts_terms_by_exponent_offset():
    # k = e - n*lo, also when every offset shares a factor
    assert list(germ("t^2 + t^4")._power_walk(2)) == [
        (4, 0, (1, 0)), (6, 2, (2, 0)), (8, 4, (1, 0))]
    # a truncated Gaussian germ whose offsets share the factor 3
    f = germ("(1,1)*t + 2*t^4 + O(t^11)")
    assert f ** 2 == f * f


nonzero_pairs = st.tuples(
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
).filter(lambda c: c != (0, 0))


@st.composite
def narrow_germ_data(draw):
    """Plain (terms, tail) data for a germ of width <= 2, exact or truncated
    (wider exact germs make sympy's side take seconds at n = 142)."""
    lo = draw(st.integers(-3, 5))
    offsets = draw(st.dictionaries(st.integers(1, 2), nonzero_pairs, max_size=2))
    terms = {lo: draw(nonzero_pairs)} | {lo + j: c for j, c in offsets.items()}
    tail = draw(st.one_of(st.none(), st.integers(lo + 1, lo + 8)))
    if tail is not None:
        terms = {e: c for e, c in terms.items() if e < tail}
    return terms, tail


@given(narrow_germ_data(), st.integers(1, 142))
@settings(max_examples=60, deadline=None)
def test_pow_matches_sympy_truncated_power(data, n):
    terms, tail = data
    f = LaurentGerm({e: GaussianRational(re, im) for e, (re, im) in terms.items()}, tail)
    power = f ** n
    want, want_tail = sympy_truncated_power(terms, tail, n)
    assert {e: (c.re, c.im) for e, c in power.items()} == want
    assert power.tail_bound == want_tail
    assert all(type(c.re) is Fraction and type(c.im) is Fraction for _, c in power.items())


@st.composite
def germ_data(draw):
    """Plain (terms, tail) data for a germ with stored terms, exact or truncated."""
    lo = draw(st.integers(-5, 10))
    terms = {lo: draw(nonzero_pairs)}
    terms |= draw(st.dictionaries(st.integers(lo + 1, lo + 8), nonzero_pairs, max_size=5))
    tail = draw(st.one_of(st.none(), st.integers(lo + 1, lo + 10)))
    if tail is not None:
        terms = {e: c for e, c in terms.items() if e < tail}
    return terms, tail


@given(germ_data(), germ_data())
@settings(max_examples=150, deadline=None)
def test_mul_matches_sympy_truncated_product(f_data, g_data):
    f, g = (LaurentGerm({e: GaussianRational(re, im) for e, (re, im) in terms.items()}, tail)
            for terms, tail in (f_data, g_data))
    product = f * g
    want, want_tail = sympy_truncated_product(f_data, g_data)
    assert {e: (c.re, c.im) for e, c in product.items()} == want
    assert product.tail_bound == want_tail
    assert product.exponents() == sorted(want)


def assert_primitive(f: LaurentGerm) -> None:
    """Numerators over one positive denominator with no common factor."""
    assert f._den > 0
    assert gcd(f._den, *chain.from_iterable(f._num.values())) == 1
    assert (0, 0) not in f._num.values()
    assert list(f._num) == sorted(f._num)


def rational_view(f: LaurentGerm):
    return {e: (c.re, c.im) for e, c in f.items()}, f.tail_bound


def test_primitive_form_examples():
    f = LaurentGerm({1: Fraction(2, 4), 2: Fraction(6, 4)})
    assert (f._num, f._den) == ({1: (1, 0), 2: (3, 0)}, 2)
    half = Fraction(1, 2)
    total = LaurentGerm({0: half, 1: half}) + LaurentGerm({0: half, 1: -half})
    assert (total._num, total._den) == ({0: (1, 0)}, 1)
    assert (germ("1/3*t") - germ("1/3*t"))._den == 1
    assert (germ("(1/2,1/2)*t") * germ("(1,-1)"))._num == {1: (1, 0)}


def test_constructor_puts_terms_that_sum_to_zero_outside_the_denominator():
    f = LaurentGerm([(1, Fraction(1, 3)), (1, Fraction(-1, 3)), (2, 1)])
    assert f == LaurentGerm({2: 1}) and f._den == 1
    # a Gaussian part that cancels leaves the other part over 1
    g = LaurentGerm([(1, GaussianRational(Fraction(1, 6), 1)),
                     (1, GaussianRational(Fraction(-1, 6), 0))])
    assert (g._num, g._den) == ({1: (0, 1)}, 1)


def by_fractions(f: LaurentGerm, g: LaurentGerm) -> LaurentGerm:
    """f * g with the coefficients multiplied as `Fraction`s, then built by
    the constructor (which drops the terms at or beyond the tail)."""
    terms = [(e1 + e2, GaussianRational(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re))
             for e1, a in f.items() for e2, b in g.items()]
    return LaurentGerm(terms, (f * g).tail_bound)


def test_cross_cancellation_needs_real_numerators_and_no_cut_pair():
    # a cut pair: the dropped t^4/4 is what kept the 4 in the denominator
    cut = germ("t + 1/2*t^2 + O(t^3)")
    product = cut * germ("t + 1/2*t^2")
    assert product == germ("t^2 + t^3 + O(t^4)") and product._den == 1
    assert cut ** 2 == germ("t^2 + t^3 + O(t^4)") and (cut ** 2)._den == 1
    # Gaussian numerators: (1 + i)(1 - i) = 2
    assert germ("(1/2,1/2)*t") * germ("(1,-1)*t") == germ("t^2")
    square = germ("(1/2,1/2)*t") ** 2
    assert square == germ("(0,1/2)*t^2")
    assert (square._num, square._den) == ({2: (0, 1)}, 2)
    # a real power whose walk runs past n steps (E > 0) is put over N_0^E * D^n
    assert germ("2 + t + t^2") ** 2 == germ("4 + 4*t + 5*t^2 + 2*t^3 + t^4")


real_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# halves make Gaussian parts whose products gain a common factor, as (1 + i)(1 - i) = 2
halves = st.fractions(min_value=-2, max_value=2, max_denominator=2)
cross_cancelled_germs = st.one_of(
    # real exact, real truncated, Gaussian exact or truncated
    st.builds(LaurentGerm, st.dictionaries(st.integers(-3, 6), real_coeffs, max_size=4)),
    st.builds(LaurentGerm, st.dictionaries(st.integers(-3, 6), real_coeffs, max_size=4),
              st.integers(-2, 8)),
    st.builds(LaurentGerm,
              st.dictionaries(st.integers(-3, 6), st.builds(GaussianRational, halves, halves),
                              max_size=3),
              st.one_of(st.none(), st.integers(-2, 8))),
)


@given(cross_cancelled_germs, cross_cancelled_germs, st.integers(0, 6), coeffs)
@settings(max_examples=300, deadline=None)
def test_products_and_powers_are_primitive_and_equal_their_fraction_form(f, g, n, c):
    product = f * g
    assert_primitive(product)
    assert product == by_fractions(f, g)
    if not c.is_zero():
        assert f.scaled(c) == by_fractions(f, LaurentGerm({0: c}))
    power = f ** n
    assert_primitive(power)
    by_mul = LaurentGerm.one()
    for _ in range(n):
        by_mul = by_fractions(by_mul, f)
    assert power == by_mul


@given(tailed_germs, tailed_germs, st.integers(0, 6), st.integers(-3, 3), coeffs)
@settings(max_examples=150, deadline=None)
def test_every_germ_is_primitive_and_equality_is_rational(f, g, n, offset, c):
    # f again, built from each coefficient's halves as duplicate terms
    halves = LaurentGerm(chain(*(((e, GaussianRational(v.re / 2, v.im / 2)),) * 2
                                 for e, v in f.items())), f.tail_bound)
    assert halves == f
    built = [f, g, halves, f * g, g * f, f ** n, f + g, g + f, f - g, -f,
             f.shifted(offset), f.scaled(c), f.scaled(2).scaled(Fraction(1, 2))]
    for h in built:
        assert_primitive(h)
    for a in built:
        for b in built:
            assert (a == b) == (rational_view(a) == rational_view(b))
            if a == b:
                assert hash(a) == hash(b)


@given(exact_germs, exact_germs)
@settings(max_examples=150)
def test_lowest_exponent_additive_for_exact_products(f, g):
    if f.is_zero() or g.is_zero():
        assert (f * g).is_zero()
    else:
        assert (f * g).lowest_exponent() == f.lowest_exponent() + g.lowest_exponent()


@given(tailed_germs)
@settings(max_examples=150)
def test_to_str_parses_back(f):
    assert parse_germ(f.to_str()) == f


def fraction_rendering(f: LaurentGerm, var: str = "t") -> str:
    """The germ grammar with every coefficient part printed by str(Fraction),
    built from the public coefficients: the text reports have always held."""
    parts = []
    for e, c in f.items():
        if c.im:
            body, sign = f"({c.re},{c.im})", "+"
        else:
            body, sign = str(abs(c.re)), "-" if c.re < 0 else "+"
        if e != 0:
            power = var if e == 1 else f"{var}^{e}"
            body = f"{body}*{power}" if c.im or abs(c.re) != 1 else power
        parts.append(f" {sign} {body}" if parts else body if sign == "+" else f"-{body}")
    if f.tail_bound is not None:
        tail = f"O({var}^{f.tail_bound})"
        parts.append(f" + {tail}" if parts else tail)
    return "".join(parts) or "0"


def test_to_str_prints_each_part_in_lowest_terms():
    f = LaurentGerm({1: GaussianRational(Fraction(1, 2), Fraction(1, 3))})
    assert (f._num, f._den) == ({1: (3, 2)}, 6)
    assert f.to_str() == "(1/2,1/3)*t"
    g = LaurentGerm({0: -1, 1: -1, 2: Fraction(2, 4), 3: GaussianRational(0, -1)}, 9)
    assert (g._num, g._den) == ({0: (-2, 0), 1: (-2, 0), 2: (1, 0), 3: (0, -2)}, 2)
    assert g.to_str() == "-1 - t + 1/2*t^2 + (0,-1)*t^3 + O(t^9)"
    assert LaurentGerm({1: -1}).to_str("z") == "-z"
    assert LaurentGerm({-2: Fraction(-3, 2)}, 0).to_str() == "-3/2*t^-2 + O(t^0)"


wide_coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
    st.one_of(st.just(0), st.fractions(min_value=-9, max_value=9, max_denominator=30)),
)


@given(st.builds(
    LaurentGerm,
    st.dictionaries(st.integers(-5, 12), st.one_of(coeffs, wide_coeffs), max_size=6),
    st.one_of(st.none(), st.integers(-3, 14)),
), st.sampled_from(["t", "z"]))
@settings(max_examples=300)
def test_to_str_prints_the_fraction_rendering(f, var):
    assert f.to_str(var) == fraction_rendering(f, var)


# -- parser properties ------------------------------------------------------------

spaces = st.sampled_from(["", " ", "  "])
signed_parts = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def rendered_germs(draw):
    """(text, terms, tail): random terms rendered in the germ grammar, with
    optional spaces wherever the grammar allows them."""
    text = draw(spaces)
    terms: list[tuple[int, GaussianRational]] = []
    for i in range(draw(st.integers(0, 5))):
        exponent = draw(st.integers(-4, 12))
        power = "t" if exponent == 1 and draw(st.booleans()) else f"t^{exponent}"
        kind = draw(st.sampled_from(["rational", "pair", "bare"]))
        if kind == "bare":
            body, c = power, GaussianRational(1)
        else:
            if kind == "rational":
                a, b = draw(st.integers(0, 30)), draw(st.integers(1, 9))
                coeff = f"{a}/{b}" if b > 1 or draw(st.booleans()) else str(a)
                c = GaussianRational(Fraction(a, b))
            else:
                parts = [draw(signed_parts) for _ in range(2)]
                shown = [("+" if x >= 0 and draw(st.booleans()) else "") + str(x)
                         for x in parts]
                coeff = "({}{}{},{}{}{})".format(
                    draw(spaces), shown[0], draw(spaces), draw(spaces), shown[1], draw(spaces))
                c = GaussianRational(*parts)
            if draw(st.booleans()):
                exponent, body = 0, coeff
            else:
                body = f"{coeff}{draw(spaces)}*{draw(spaces)}{power}"
        negate = draw(st.booleans())
        sign = "-" if negate else ("" if i == 0 else "+")
        text += f"{sign}{draw(spaces)}{body}{draw(spaces)}"
        terms.append((exponent, GaussianRational(-c.re, -c.im) if negate else c))
    tail = None
    if not terms or draw(st.booleans()):
        tail = draw(st.integers(max((e for e, _ in terms), default=-5) + 1, 14))
        text += f"{'+' if terms else ''}{draw(spaces)}O(t^{tail}){draw(spaces)}"
    return text, terms, tail


@given(rendered_germs())
@settings(max_examples=300)
def test_parse_reads_rendered_terms(data):
    text, terms, tail = data
    assert parse_germ(text) == LaurentGerm(terms, tail)


germ_characters = st.text(alphabet="0123456789tO()^*/+-, ", max_size=30)
germ_pieces = st.lists(
    st.sampled_from(["t", "t^", "O(t^", "(", ")", ",", "*", "/", "+", "-", " ", "0", "1",
                     "2", "-1", "1/2", "(1,2)"]),
    max_size=10,
).map("".join)


@given(st.one_of(germ_characters, germ_pieces))
@settings(max_examples=500)
def test_parse_returns_a_germ_or_refuses(text):
    try:
        f = parse_germ(text)
    except GermParseError:
        return
    assert isinstance(f, LaurentGerm)


# -- the parser against its Fraction-building reference -----------------------------

INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
LONG = "1" * (INT_LIMIT + 1)  # one digit more than int() converts
# the sampled lists make over-long numbers and zero denominators rare
digits = st.sampled_from(["0", "1", "1", "2", "3", "4", "6", "12", "007", LONG])
ratios = st.one_of(
    digits,
    st.tuples(digits, st.sampled_from(["/1", "/2", "/3", "/4", "/6", "/12", "/0", "/00"]))
    .map("".join),
)
signed_ratios = st.tuples(st.sampled_from(["", "+", "-"]), ratios).map("".join)
exponents = st.sampled_from(["-2", "-1", "0", "1", "2", "3", "4", "4", "5", LONG])
powers = st.one_of(st.just("t"), exponents.map("t^".__add__))


@st.composite
def parser_texts(draw):
    """Term lists in the germ grammar, and some just outside it: unreduced
    parts, repeated exponents (so sums that cancel), signed Gaussian parts
    under a leading sign, zero denominators and numbers longer than `int()`
    converts in every slot, and tails anywhere."""
    text = ""
    for i in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["", "", "-", "+"] if i == 0 else ["-", "+", " - ", " + "]))
        kind = draw(st.sampled_from(["rational", "rational", "pair", "pair", "bare", "tail"]))
        if kind == "tail":
            body = f"O(t^{draw(exponents)})"
        elif kind == "bare":
            body = draw(powers)
        else:
            if kind == "rational":
                coeff = draw(ratios)
            else:
                coeff = f"({draw(signed_ratios)}, {draw(signed_ratios)})"
            body = draw(st.one_of(st.just(coeff), powers.map(f"{coeff}*".__add__)))
        text += f"{sign}{body}"
    return text


@given(st.one_of(parser_texts(), germ_characters, germ_pieces))
@example("2/4*t + 6/4*t^2")
@example("t - t")
@example("(1/2,1/2)*t - (1/2,1/2)*t + 1/3")
@example("-(-1/2,+3/4)*t^2 + (2,-4)*t^2")
@example("(1/0,2)*t")
@example("(1,2/0)*t")
@example(f"(1/0,{LONG})")
@example(f"({LONG},1/0)")
@example(f"{LONG}/0*t")
@example(f"t^{LONG}")
@example(f"t + O(t^{LONG})")
@settings(max_examples=500)
def test_parse_matches_the_fraction_reference(text):
    try:
        want = reference_parse_germ(text)
    except GermParseError as exc:
        with pytest.raises(GermParseError) as excinfo:
            parse_germ(text)
        assert type(excinfo.value) is GermParseError and str(excinfo.value) == str(exc)
        return
    f = parse_germ(text)
    num, den, tail = want
    # the same terms in the same (increasing) exponent order
    assert (list(f._num.items()), f._den, f._tail) == (list(num.items()), den, tail)
