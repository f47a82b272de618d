"""Monomial cusp curves and their holomorphy invariants.

The model singularity with parameters p, q is the plane curve
z1^p = z2^q, normalized by t -> (t^q, t^p).  Pulling functions back along
the normalization turns every holomorphy question into arithmetic of
t-exponents in the semigroup <p, q>: an exponent is a restriction of an
ambient holomorphic function exactly when it is a member.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import UndecidableAtTruncation
from .germ import Decision, LaurentGerm
from .semigroup import NumericalSemigroup


class CoveringData(NamedTuple):
    degree: int
    axis: int  # base coordinate of the admissible projection: 1 for z1, 2 for z2


class RadoGerm(NamedTuple):
    """The canonical continuous unit-order germ z1^m / z2^n with mq - np = 1.

    Its pullback is exactly t: continuous on the curve, holomorphic off the
    cusp, but t itself is never a restriction of an ambient holomorphic
    function because 1 is not in <p, q>.
    """

    m: int
    n: int
    pullback: LaurentGerm


# the pullback of every curve's unit-order germ; germs are immutable, so one serves all
UNIT_PULLBACK = LaurentGerm.monomial(1)

# one semigroup per curve shape: a semigroup is immutable apart from the gap
# mask it builds on first use, so curves of one shape share it and its mask.
# typed=True keeps (2.0, 3) and (True, 3) apart from (2, 3), so they still
# raise; a call that raises is never cached.
_semigroup = functools.lru_cache(typed=True)(NumericalSemigroup)


class WeakGenerationReport(NamedTuple):
    generator_power_max: int  # r: module generators are the powers 0..r of the unit-order germ
    checked_up_to: int
    generates: bool
    one_fewer_suffices: bool


class CuspCurve:
    """The cusp z1^p = z2^q with coprime p, q >= 2.

    Curves of one shape (p, q) share one `NumericalSemigroup`, so its gap
    mask is built once per process, not once per curve.  The shared
    semigroups sit in an `lru_cache` of the default size: at most 128
    shapes, each holding a gap mask of c/8 bytes (c the conductor) once a
    power scan has built it.
    """

    __slots__ = ("p", "q", "semigroup")

    def __init__(self, p: int, q: int):
        self.semigroup = _semigroup(p, q)
        self.p = p
        self.q = q

    @classmethod
    def from_spec(cls, spec: str) -> "CuspCurve":
        """Parse the curve spec string "gamma:p,q"."""
        prefix, _, rest = spec.partition(":")
        if prefix != "gamma" or not rest:
            raise ValueError(f"curve spec must look like gamma:p,q, got {spec!r}")
        try:
            p_text, q_text = rest.split(",")
            p, q = int(p_text), int(q_text)
        except ValueError:
            raise ValueError(f"curve spec must look like gamma:p,q, got {spec!r}") from None
        return cls(p, q)

    def spec_str(self) -> str:
        return f"gamma:{self.p},{self.q}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CuspCurve):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self) -> int:
        return hash((CuspCurve, self.p, self.q))

    def __repr__(self) -> str:
        return f"CuspCurve({self.p}, {self.q})"

    # -- pullbacks -----------------------------------------------------------

    def pullback_monomial(self, a: int, b: int) -> int:
        """t-exponent of z1^a z2^b pulled back along t -> (t^q, t^p)."""
        return a * self.q + b * self.p

    def rado_germ(self) -> RadoGerm:
        """Minimal natural solution (m, n) of m*q - n*p = 1, with 1 <= m <= p."""
        m = pow(self.q, -1, self.p)  # in 1..p-1 since p, q are coprime and p >= 2
        n = (m * self.q - 1) // self.p
        return RadoGerm(m=m, n=n, pullback=UNIT_PULLBACK)

    # -- holomorphy decisions -------------------------------------------------

    def is_holomorphic_at_cusp(self, f: LaurentGerm) -> Decision:
        """Is the germ the restriction of an ambient holomorphic function?

        True exactly when every t-exponent lies in <p, q>; hidden tails are
        harmless once they start at or beyond the conductor.
        """
        return f.exponents_within(self.semigroup.contains, self.semigroup.conductor())

    def is_weakly_holomorphic(self, f: LaurentGerm) -> Decision:
        """Bounded near the cusp and holomorphic off it: all exponents >= 0.

        The normalization is a homeomorphism here, so this coincides with
        being continuous with holomorphic pullback.
        """
        return f.exponents_within(lambda e: e >= 0, 0)

    def holomorphy_witness(self, f: LaurentGerm) -> int | None:
        """Smallest stored exponent proving non-holomorphy, if any."""
        return self.is_holomorphic_at_cusp(f).witness

    def min_power(self, f: LaurentGerm) -> int:
        """Smallest n >= 1 with f^n certified holomorphic at the cusp: the
        least power decided CertainlyYes.  A smaller power may be undecided
        at the germ's truncation (on gamma:3,5, `t^3 + O(t^4)` gives 3 while
        powers 1 and 2 are unknown).

        For lo >= 1 the scan ends by N = ceil(c/lo), c the conductor: every
        exponent of f^N is at least N*lo >= c and its tail (N-1)*lo + T
        exceeds N*lo, so f^N is yes.

        Each power's kind is that of `is_holomorphic_at_cusp(f ** n)`, read
        by `LaurentGerm.power_kinds` from the supports of the powers against
        the gap mask of <p, q>; no power is built.  It takes the powers in
        any order, runs its support pass at most once and only forward, and
        answers every power from the one where the monoid of f's offsets
        settles from a single bitset (`monoid_bits`, which builds the gap
        mask too).  For a truncated f the scan starts at
        max(1, ceil((c - T)/lo) + 1): below it f^n's tail (n-1)*lo + T is
        below c, so f^n is at best unknown.  An exact f starts at 1.

        A tail-only O(t^T) needs no scan: it has no terms, and its power
        O(t^(nT)) is yes exactly when nT >= c, unknown before.  For T > 0 the
        answer is ceil(c/T) <= c; for T <= 0 every power is unknown.

        A unit f (one storing t^0) needs no scan: every power f^n decides
        like f, witness and reason included.  The stored exponents of f^n are
        sums of f's stored positive exponents, and f^n keeps f's tail T,
        because its lowest exponent is 0.  If every stored exponent of f is a
        member, so is every sum of them: f^n is yes, or unknown for the same
        O(t^T).  Otherwise let e be f's least stored gap.  Every smaller
        stored exponent is a member, and so is every sum of them, so t^e
        arises in f^n only as c_e t^e * c_0^(n-1), with coefficient
        n * c_e * c_0^(n-1) != 0 in characteristic 0: f^n is no, with
        witness e.
        """
        if f.is_zero():
            raise ValueError("zero germ has no minimal holomorphic power")
        lo = f.lowest_exponent()
        if lo is not None and lo < 0:
            raise ValueError("germ is not weakly holomorphic")
        cap = self.semigroup.conductor()
        if lo is None:
            # O(t^T): every power O(t^(nT)) is unknown until nT >= c, then yes
            if f.tail_bound > 0:
                return -(-cap // f.tail_bound)
            raise UndecidableAtTruncation("power 1 undecidable at the germ's truncation")
        if lo >= 1:
            last = -(-cap // lo)
            first = 1 if f.is_exact() else max(1, -(-(cap - f.tail_bound) // lo) + 1)
            kinds = f.power_kinds(self.semigroup, range(first, last))
            return next((n for n, kind in kinds if kind == "yes"), last)
        # a unit: power 1 settles the whole scan
        verdict = self.is_holomorphic_at_cusp(f)
        if verdict.is_yes:
            return 1
        if verdict.is_unknown:
            raise UndecidableAtTruncation("power 1 undecidable at the germ's truncation")
        raise ValueError(f"no power up to the conductor {cap} is holomorphic")

    def stable_power(self, f: LaurentGerm) -> int:
        """Smallest N such that every power f^n with n >= N is holomorphic.

        For lo >= 1 the answer is one past the last power that is no, unless
        an unknown power comes after it.  Every exponent of f^n is at least
        n*lo, and its tail (n-1)*lo + T exceeds n*lo, so every power with
        n*lo >= c is yes.  The scan therefore runs backward from
        ceil(c/lo) - 1, with each power's kind read as in min_power: the
        powers down to the one where the monoid settles read its bitset, and
        the first power below that runs the forward pass, once, up to
        itself.  Every power above the first one that is not yes is yes.  If
        that power is no, it is the last no and nothing undecided follows
        it, so the answer is n + 1.  If it is unknown, an undecided power
        lies above every no.  If every power is yes, the answer is 1.
        """
        if f.is_zero():
            raise ValueError("zero germ has no stable power")
        lo = f.lowest_exponent()
        if lo is None:
            raise UndecidableAtTruncation("tail-only germ: lowest exponent unknown")
        if lo < 0:
            raise ValueError("germ is not weakly holomorphic")
        c = self.semigroup.conductor()
        if lo >= 1:
            kinds = f.power_kinds(self.semigroup, range(-(-c // lo) - 1, 0, -1))
            for n, kind in kinds:
                if kind == "no":
                    return n + 1
                if kind == "unknown":
                    raise UndecidableAtTruncation(
                        "undecided powers above the last certain failure"
                    )
            return 1
        # a unit: every power decides like f (proof in min_power); the messages
        # keep the c + pq bound of tests/independent_oracles.py::stable_power_scan
        verdict = self.is_holomorphic_at_cusp(f)
        if verdict.is_yes:
            return 1
        cap = c + self.p * self.q
        if verdict.is_unknown:
            raise UndecidableAtTruncation(
                f"no certified run of holomorphic powers up to {cap}"
            )
        raise ValueError(f"no stable power found up to {cap}")

    # -- multiplier conditions -------------------------------------------------

    def floor_multiplier_check(self, a: int, b: int) -> bool:
        """Floor-form sufficient condition for z1^a z2^b * (unit-order germ)
        to be holomorphic: q*floor((m+a)/p) + b >= n."""
        if a < 0 or b < 0:
            raise ValueError("monomial exponents must be >= 0")
        r = self.rado_germ()
        return self.q * ((r.m + a) // self.p) + b >= r.n

    def exact_multiplier_check(self, a: int, b: int) -> bool:
        """Exact criterion: the pullback exponent a*q + b*p + 1 is a semigroup member."""
        if a < 0 or b < 0:
            raise ValueError("monomial exponents must be >= 0")
        return self.semigroup.contains(self.pullback_monomial(a, b) + 1)

    # -- weak-module structure ---------------------------------------------------

    def weak_generator_count(self) -> int:
        """r = min(p, q) - 1: powers 0..r of the unit-order germ generate the
        weakly holomorphic germs as a module over the holomorphic ones."""
        return min(self.p, self.q) - 1

    def weak_generation_report(self) -> WeakGenerationReport:
        """Monomial-level generation check, answered by its closed form.

        Every t^e with 0 <= e <= conductor + r must factor as t^s * t^j with
        s a semigroup member and 0 <= j <= r; larger e lie in the semigroup
        outright.  With m = min(p, q) and r = m - 1, each e is k*m + j with
        0 <= j <= r, and k*m is a member, so the powers 0..r always
        generate.  The powers 0..r-1 never do: for e = m - 1, which is
        within the bound, every e - j with 0 <= j <= r - 1 lies in
        [1, m - 1], below every nonzero member.  The scan this replaces is
        tests/independent_oracles.py::weak_generation_scan.
        """
        r = self.weak_generator_count()
        return WeakGenerationReport(
            generator_power_max=r,
            checked_up_to=self.semigroup.conductor() + r,
            generates=True,
            one_fewer_suffices=False,
        )

    # -- local geometry ------------------------------------------------------------

    def covering_degree(self) -> CoveringData:
        """Degree and base axis of the admissible branched-covering projection.

        Projecting onto the coordinate with the smaller pullback exponent
        gives fibers of min(p, q) points, and the projection's kernel (the
        other axis) meets the secant cone only at the origin.
        """
        if self.p < self.q:
            return CoveringData(degree=self.p, axis=2)
        return CoveringData(degree=self.q, axis=1)

    def whitney_cone(self) -> int:
        """Coordinate axis of limiting secant directions at the cusp.

        The component with the smaller pullback exponent dominates as t -> 0,
        so the cone is the z2-axis for p < q and the z1-axis for q < p.
        """
        return 2 if self.p < self.q else 1

    def order_of_flatness(self, f: LaurentGerm) -> Fraction:
        """Largest a with |f| = O(||x||^a) near the cusp, in the max-norm.

        ||(t^q, t^p)|| behaves like |t|^min(p,q) for small t, so a germ of
        t-order e has order of flatness e / min(p, q), never below
        1 / covering degree.
        """
        lo = f.lowest_exponent()
        if lo is None:
            raise ValueError("order of flatness needs a germ with known lowest exponent")
        if lo < 1:
            raise ValueError(f"germ must vanish at the cusp, lowest exponent {lo}")
        return Fraction(lo, min(self.p, self.q))

    def weierstrass(self, e: int) -> "WeierstrassPoly":
        """Monic annihilating polynomial of the monomial germ t^e over the
        admissible degree-min(p,q) projection."""
        return WeierstrassPoly.for_monomial(self.covering_degree().degree, e)


class RootBoundReport(NamedTuple):
    constant: float  # fitted M with |T| <= M * |z|^(1/d) on the sampled range
    stable: bool  # fine-scale samples stay below the coarse-scale fit
    worst_ratio: float


class WeierstrassPoly(NamedTuple):
    """(T^{d/g} - z^{e/g})^g, the monic degree-d polynomial in T vanishing on
    the graph T = t^e over the base z = t^d, where g = gcd(d, e)."""

    degree: int
    inner_degree: int
    z_exponent: int
    multiplicity: int

    @classmethod
    def for_monomial(cls, d: int, e: int) -> "WeierstrassPoly":
        """Expand the product of (T - f(t')) over the d points t' of the fiber,
        for f = t^e: the d-th roots of unity collapse it to (T^{d/g} - z^{e/g})^g."""
        if d < 1:
            raise ValueError(f"covering degree must be >= 1, got {d}")
        if e < 1:
            raise ValueError(f"germ exponent must be >= 1, got {e}")
        g = math.gcd(d, e)
        return cls(degree=d, inner_degree=d // g, z_exponent=e // g, multiplicity=g)

    def coefficient_poly(self, j: int) -> dict[int, int]:
        """a_j as a map z-power -> integer coefficient, for W = T^d + sum a_j T^(d-j).

        By the binomial theorem only j = m*i with 0 <= i <= g is nonzero:
        a_(m*i) = (-1)^i * C(g, i) * z^(s*i), for m = d/g and s = e/g.
        """
        i, r = divmod(j, self.inner_degree)
        if r or not 0 <= i <= self.multiplicity:
            return {}
        return {self.z_exponent * i: (-1) ** i * math.comb(self.multiplicity, i)}

    def coefficients_at(self, z: complex) -> list[complex]:
        """[1, a_1(z), ..., a_d(z)], highest T-power first."""
        return [1.0 + 0j] + [sum(c * z**k for k, c in self.coefficient_poly(j).items())
                             for j in range(1, self.degree + 1)]

    def annihilates_pullback(self) -> bool:
        """Substitute z = t^d, T = t^e and check exact cancellation."""
        d = self.degree
        e = self.z_exponent * self.multiplicity
        acc: dict[int, int] = {}
        for j in range(0, d + 1):
            for zpow, c in self.coefficient_poly(j).items():
                t_exp = d * zpow + e * (d - j)
                acc[t_exp] = acc.get(t_exp, 0) + c
        return all(v == 0 for v in acc.values())

    def factored_str(self) -> str:
        inner = "T" if self.inner_degree == 1 else f"T^{self.inner_degree}"
        zpart = "z" if self.z_exponent == 1 else f"z^{self.z_exponent}"
        base = f"{inner} - {zpart}"
        if self.multiplicity == 1:
            return base
        return f"({base})^{self.multiplicity}"

    def root_bound_check(self, moduli: list[float] | None = None) -> RootBoundReport:
        """Check that roots satisfy |T| <= M * |z|^(1/d) near 0.

        Every root of (T^(d/g) - z^(e/g))^g has |T| = |z|^(e/d), so the ratio
        at modulus r is r^((e-1)/d), whatever the angle.  M is fitted on the
        coarser (larger |z|) half of the moduli, and the finer half must stay
        below it.  The exponent (e-1)/d is at least 0, so the ratio does not
        grow as r shrinks: the fit is the ratio at the largest modulus, which
        is also the worst ratio, and the finer half never exceeds it, so the
        check is always stable.
        """
        exponent = (self.z_exponent * self.multiplicity - 1) / self.degree
        if moduli is None:
            moduli = [10.0 ** (-k / 2.0) for k in range(4, 13)]  # 1e-2 .. 1e-6
        worst = max(moduli) ** exponent
        return RootBoundReport(constant=worst, stable=True, worst_ratio=worst)

    def __repr__(self) -> str:
        return f"WeierstrassPoly({self.factored_str()!r})"
