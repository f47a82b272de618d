"""Dual-number sections: idealization product, exact powers, extension."""

import random
from fractions import Fraction

import pytest

from cuspgerms import (
    DualSection,
    LaurentGerm,
    LaurentObject,
    UnsupportedEssentialProduct,
    identity_section,
    nagata_mul,
    nagata_pow,
)


def obj(e: int, c=1) -> LaurentObject:
    return LaurentObject.monomial(e, c)


SIGMA_INV = identity_section(obj(-1))  # z + eps/z
SIGMA_EXP = identity_section(LaurentObject.essential_unit())  # z + eps*exp(1/z)


# -- Laurent objects ---------------------------------------------------------------


def test_laurent_object_validation():
    with pytest.raises(ValueError):
        LaurentObject(LaurentGerm.tail_only(3))
    with pytest.raises(ValueError):
        LaurentObject(LaurentGerm.zero(), essential=True)


def test_extension_predicate():
    assert obj(0).extends_across_origin()
    assert obj(3).extends_across_origin()
    assert not obj(-1).extends_across_origin()
    assert LaurentObject.zero().extends_across_origin()
    assert not LaurentObject.essential_unit().extends_across_origin()


def test_essential_flag_survives_monomial_shifts():
    e = LaurentObject.essential_unit()
    for k in range(-3, 7):
        shifted = obj(k) * e
        assert shifted.essential
        assert not shifted.extends_across_origin()


def test_essential_times_essential_rejected():
    e = LaurentObject.essential_unit()
    with pytest.raises(UnsupportedEssentialProduct):
        e * e
    with pytest.raises(UnsupportedEssentialProduct):
        e ** 2
    with pytest.raises(UnsupportedEssentialProduct):
        obj(1) + e  # mixed sums are not representable either
    assert (e ** 1) == e
    assert (e ** 0) == LaurentObject.one()


def test_zero_absorbs_in_mixed_sums():
    e = obj(2) * LaurentObject.essential_unit()
    assert LaurentObject.zero() + e == e
    assert e + LaurentObject.zero() == e
    assert (LaurentObject.zero() * e).is_zero()


def test_essential_cancellation_returns_plain_zero():
    e = LaurentObject.essential_unit()
    total = e + (-e)
    assert total.is_zero()
    assert not total.essential


# -- multiplication -----------------------------------------------------------------


def test_unit_and_nilpotent_squares():
    one = DualSection(LaurentObject.one())
    s = DualSection(obj(2), obj(-1))
    assert nagata_mul(one, s) == s
    eps_a = DualSection(LaurentObject.zero(), obj(3))
    eps_b = DualSection(LaurentObject.zero(), obj(-2))
    product = nagata_mul(eps_a, eps_b)
    assert product.base.is_zero() and product.nil.is_zero()


def test_rule_expansion_example():
    square = nagata_mul(SIGMA_INV, SIGMA_INV)
    assert square.base == obj(2)
    assert square.nil == obj(0, 2)  # z * 1/z + z * 1/z


def test_componentwise_addition():
    a = DualSection(obj(1), obj(0))
    b = DualSection(obj(2), obj(-1, 3))
    total = a + b
    assert total.base == LaurentObject(LaurentGerm({1: 1, 2: 1}))
    assert total.nil == LaurentObject(LaurentGerm({0: 1, -1: 3}))


# -- powers ------------------------------------------------------------------------


def test_power_examples():
    assert nagata_pow(SIGMA_INV, 2) == DualSection(obj(2), obj(0, 2))
    assert nagata_pow(SIGMA_INV, 3) == DualSection(obj(3), obj(1, 3))
    for k in range(1, 7):
        p = nagata_pow(SIGMA_EXP, k)
        assert p.base == obj(k)
        assert p.nil == obj(k - 1, k) * LaurentObject.essential_unit()
    with pytest.raises(ValueError):
        nagata_pow(SIGMA_INV, 0)


def test_pow_matches_iterated_mul():
    for section in (SIGMA_INV, SIGMA_EXP, DualSection(obj(1, 2), obj(-3, Fraction(1, 2)))):
        acc = section
        for k in range(2, 51):
            acc = nagata_mul(acc, section)
            assert nagata_pow(section, k) == acc, k


def test_extension_of_powers_inverse_shift():
    assert not nagata_pow(SIGMA_INV, 1).extends_across_origin()
    for k in range(2, 101):
        assert nagata_pow(SIGMA_INV, k).extends_across_origin(), k


def test_extension_of_powers_essential_shift():
    for k in range(1, 101):
        assert not nagata_pow(SIGMA_EXP, k).extends_across_origin(), k


def test_plain_section_extends():
    assert DualSection(obj(2), LaurentObject.one()).extends_across_origin()


# -- reduction ----------------------------------------------------------------------


def test_reduction_examples():
    assert SIGMA_INV.reduction() == obj(1)
    assert DualSection(LaurentObject.zero(), obj(5)).reduction().is_zero()
    for k in (2, 5, 9):
        assert nagata_pow(SIGMA_INV, k).reduction() == obj(1) ** k


def test_reduction_is_multiplicative():
    rng = random.Random(3)
    for _ in range(100):
        s = _random_section(rng)
        t = _random_section(rng)
        assert nagata_mul(s, t).reduction() == s.reduction() * t.reduction()


# -- ring axioms ---------------------------------------------------------------------


def _random_object(rng: random.Random) -> LaurentObject:
    terms = {
        rng.randint(-4, 5): rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-3, 7)])
        for _ in range(rng.randint(0, 3))
    }
    return LaurentObject(LaurentGerm(terms))


def _random_section(rng: random.Random) -> DualSection:
    return DualSection(_random_object(rng), _random_object(rng))


def test_ring_axioms_on_random_triples():
    rng = random.Random(2024)
    for _ in range(500):
        s, t, u = (_random_section(rng) for _ in range(3))
        assert nagata_mul(s, t) == nagata_mul(t, s)
        assert nagata_mul(nagata_mul(s, t), u) == nagata_mul(s, nagata_mul(t, u))
        assert nagata_mul(s, t + u) == nagata_mul(s, t) + nagata_mul(s, u)


def test_rendering():
    assert SIGMA_INV.to_str() == "(z) + eps*(z^-1)"
    assert nagata_pow(SIGMA_INV, 2).to_str() == "(z^2) + eps*(2)"
    assert SIGMA_EXP.to_str() == "(z) + eps*(exp(1/z))"
    assert DualSection(obj(3)).to_str() == "z^3"
    assert (obj(2, 3) * LaurentObject.essential_unit()).to_str() == "3*z^2*exp(1/z)"
