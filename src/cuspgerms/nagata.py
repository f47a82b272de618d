"""Dual-number sections over Laurent polynomials on the punctured line.

A section is base + eps*nil with eps^2 = 0, multiplied by the idealization
rule (r, m)*(r', m') = (rr', rm' + r'm).  Components are exact Laurent
polynomials, optionally tagged with a formal factor exp(1/z) so that an
essential singularity survives multiplication by monomials without ever
expanding its series.  The point of the machinery: taking powers of the
section (z, g) and asking which of them extend across the origin.
"""

from __future__ import annotations

from .errors import UnsupportedEssentialProduct
from .germ import GaussianRational, LaurentGerm

_QRat = GaussianRational | int  # accepted coefficient scalars


class LaurentObject:
    """An exact Laurent polynomial, or such a polynomial times exp(1/z)."""

    __slots__ = ("poly", "essential")

    def __init__(self, poly: LaurentGerm, essential: bool = False):
        if poly.tail_bound is not None:
            raise ValueError("Laurent objects must be exact, with no truncation tail")
        if essential and poly.is_zero():
            raise ValueError("the essential factor needs a nonzero polynomial part")
        self.poly = poly
        self.essential = essential

    @classmethod
    def zero(cls) -> "LaurentObject":
        return cls(LaurentGerm.zero())

    @classmethod
    def one(cls) -> "LaurentObject":
        return cls(LaurentGerm.one())

    @classmethod
    def monomial(cls, e: int, c: _QRat = 1) -> "LaurentObject":
        return cls(LaurentGerm.monomial(e, c))

    @classmethod
    def essential_unit(cls) -> "LaurentObject":
        """The formal exp(1/z) itself."""
        return cls(LaurentGerm.one(), essential=True)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def extends_across_origin(self) -> bool:
        """Holomorphic continuation to 0 exists: no essential factor and no
        negative exponents.  The zero object extends."""
        return not self.essential and self.poly.exponents_within(lambda e: e >= 0).is_yes

    def __add__(self, other: "LaurentObject") -> "LaurentObject":
        if not isinstance(other, LaurentObject):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.essential != other.essential:
            raise UnsupportedEssentialProduct(
                "cannot add an essential object to a plain one"
            )
        total = self.poly + other.poly
        if total.is_zero():
            return LaurentObject.zero()
        return LaurentObject(total, self.essential)

    def __neg__(self) -> "LaurentObject":
        if self.is_zero():
            return self
        return LaurentObject(-self.poly, self.essential)

    def __mul__(self, other: "LaurentObject") -> "LaurentObject":
        if not isinstance(other, LaurentObject):
            return NotImplemented
        if self.essential and other.essential:
            raise UnsupportedEssentialProduct(
                "products of two essential objects are not representable"
            )
        product = self.poly * other.poly
        if product.is_zero():
            return LaurentObject.zero()
        return LaurentObject(product, self.essential or other.essential)

    def __pow__(self, k: int) -> "LaurentObject":
        if k < 0:
            raise ValueError(f"power must be >= 0, got {k}")
        if k == 0:
            return LaurentObject.one()
        if self.essential and k >= 2:
            raise UnsupportedEssentialProduct(
                "powers >= 2 of an essential object are not representable"
            )
        if self.essential or k == 1:
            return self
        return LaurentObject(self.poly ** k)

    def scaled(self, factor: _QRat) -> "LaurentObject":
        scaled_poly = self.poly.scaled(factor)
        if scaled_poly.is_zero():
            return LaurentObject.zero()
        return LaurentObject(scaled_poly, self.essential)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentObject):
            return NotImplemented
        return self.essential == other.essential and self.poly == other.poly

    def __hash__(self) -> int:
        return hash((LaurentObject, self.poly, self.essential))

    def to_str(self, var: str = "z") -> str:
        body = self.poly.to_str(var=var)
        if not self.essential:
            return body
        if body == "1":
            return f"exp(1/{var})"
        if len(self.poly.exponents()) == 1:
            return f"{body}*exp(1/{var})"
        return f"({body})*exp(1/{var})"

    def __repr__(self) -> str:
        return f"LaurentObject({self.to_str()!r})"


class DualSection:
    """base + eps*nil over Laurent objects, with eps^2 = 0."""

    __slots__ = ("base", "nil")

    def __init__(self, base: LaurentObject, nil: LaurentObject | None = None):
        self.base = base
        self.nil = LaurentObject.zero() if nil is None else nil

    def reduction(self) -> LaurentObject:
        """Forget the nilpotent part."""
        return self.base

    def extends_across_origin(self) -> bool:
        return self.base.extends_across_origin() and self.nil.extends_across_origin()

    def __add__(self, other: "DualSection") -> "DualSection":
        if not isinstance(other, DualSection):
            return NotImplemented
        return DualSection(self.base + other.base, self.nil + other.nil)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DualSection):
            return NotImplemented
        return self.base == other.base and self.nil == other.nil

    def __hash__(self) -> int:
        return hash((DualSection, self.base, self.nil))

    def to_str(self, var: str = "z") -> str:
        if self.nil.is_zero():
            return self.base.to_str(var)
        return f"({self.base.to_str(var)}) + eps*({self.nil.to_str(var)})"

    def __repr__(self) -> str:
        return f"DualSection({self.to_str()!r})"


def nagata_mul(s: DualSection, t: DualSection) -> DualSection:
    """(r, m)*(r', m') = (rr', rm' + r'm): multiplication with eps^2 = 0."""
    return DualSection(s.base * t.base, s.base * t.nil + t.base * s.nil)


def nagata_pow(s: DualSection, k: int) -> DualSection:
    """k-th power in closed form: (base^k, k * base^(k-1) * nil).

    The formula is the exact consequence of the multiplication rule; it is
    cross-checked against iterated products in the tests.
    """
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    if k == 1:
        return DualSection(s.base, s.nil)
    return DualSection(s.base ** k, (s.base ** (k - 1) * s.nil).scaled(k))


def identity_section(g: LaurentObject) -> DualSection:
    """The section z + eps*g: the identity coordinate with nilpotent shift g."""
    return DualSection(LaurentObject.monomial(1), g)
