"""Gluing cusp models into an open curve and certifying power obstructions.

The glued curve carries one cusp model z1^k = z2^(k+1) at each integer
center k = 2, 3, ..., implanted inside the disk of radius 1/3 around k.
A global section is the data of one pullback germ per site, pinned down
only modulo the ideal of the surgery, which at site k is the (k-1)-st
power of the maximal ideal.  Everything here is exact: disk disjointness
is rational arithmetic, power decisions are semigroup membership.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .curve import CuspCurve
from .errors import NoWitnessInRange
from .germ import Decision, LaurentGerm, aggregate_decisions

_DEFAULT_RADIUS = Fraction(1, 3)


class Site:
    """One surgery site: a cusp model z1^k = z2^(k+1) centered at a base point."""

    __slots__ = ("index", "center", "radius", "curve")

    def __init__(self, index: int, center: Fraction | int | None = None,
                 radius: Fraction = _DEFAULT_RADIUS):
        if index < 2:
            raise ValueError(f"site index must be >= 2, got {index}")
        if radius <= 0:
            raise ValueError(f"disk radius must be positive, got {radius}")
        self.index = index
        self.center = Fraction(index if center is None else center)
        self.radius = Fraction(radius)
        self.curve = CuspCurve(index, index + 1)

    def ideal_exponent(self) -> int:
        """Least pullback exponent in the surgery ideal: k(k-1), which is also
        the conductor of <k, k+1>."""
        return self.index * (self.index - 1)

    def ideal_contains(self, e: int) -> bool:
        """Is t^e the pullback of an element of the (k-1)-st maximal-ideal power?

        Closed form: exactly when e >= k(k-1).  Such pullback exponents are
        e = k(k-1) + j + s with 0 <= j <= k-1 and s in <k, k+1>, so none lies
        below k(k-1); s = 0 covers the first k above it, and beyond those the
        k candidates e - k(k-1) - j are consecutive positive integers, one of
        them a multiple of k.
        """
        return e >= self.ideal_exponent()

    def decision_for_power(self, germ: LaurentGerm, n: int) -> Decision:
        """The decision of germ ** n at this cusp, witness and reason included,
        from a walk of its terms (`LaurentGerm.exponents_within`), not the power."""
        semigroup = self.curve.semigroup
        return germ.exponents_within(semigroup.contains, semigroup.conductor(), n)

    def __repr__(self) -> str:
        return f"Site(index={self.index}, center={self.center}, radius={self.radius})"


def validate_star(sites: Sequence[Site]) -> bool:
    """Closed disks pairwise disjoint, and no disk reaches another site's center.

    Exact rational arithmetic on the base line; the standard layout
    (integer centers, radius 1/3) passes because gaps of 1 exceed 2/3.
    Radii are positive, so disjoint disks never reach another center.  Only
    neighbours in center order are compared: if disks i < j < k are disjoint
    as neighbours, then c_k - c_i > r_i + r_k + 2 r_j.
    """
    ordered = sorted(sites, key=lambda s: s.center)
    return all(
        b.center - a.center > a.radius + b.radius
        for a, b in zip(ordered, ordered[1:])
    )


class SurgeryCurve:
    """The open curve with cusp models implanted at sites 2..maxIndex, in
    disjoint disks (`validate_star`)."""

    __slots__ = ("sites", "max_index")

    def __init__(self, sites: Iterable[Site]):
        site_list = list(sites)
        if not site_list:
            raise ValueError("a surgery curve needs at least one site")
        indices = [s.index for s in site_list]
        if indices != list(range(2, 2 + len(indices))):
            raise ValueError(f"site indices must be exactly 2..maxIndex, got {indices}")
        if not validate_star(site_list):
            raise ValueError("surgery disks overlap")
        self.sites = tuple(site_list)
        self.max_index = indices[-1]

    @classmethod
    def build_standard(cls, max_k: int) -> "SurgeryCurve":
        """Sites 2..max_k in standard position."""
        if max_k < 2:
            raise ValueError(f"maxK must be >= 2, got {max_k}")
        return cls(Site(k) for k in range(2, max_k + 1))

    def site(self, k: int) -> Site:
        if not 2 <= k <= self.max_index:
            raise ValueError(f"no site with index {k}; sites run 2..{self.max_index}")
        return self.sites[k - 2]

    def __repr__(self) -> str:
        return f"SurgeryCurve(maxIndex={self.max_index})"


class GlobalSection(NamedTuple):
    """One pullback germ per site; the germ is the local normal form of a
    single continuous function on the glued curve, known modulo the ideal."""

    per_site: Mapping[int, LaurentGerm]

    def germ_at(self, k: int) -> LaurentGerm:
        try:
            return self.per_site[k]
        except KeyError:
            raise ValueError(f"section has no germ at site {k}") from None


def make_global_rado(
    curve: SurgeryCurve,
    explicit_tails: Mapping[int, LaurentGerm] | None = None,
) -> GlobalSection:
    """The canonical continuous section: t at each site, modulo the ideal.

    By default the ideal ambiguity stays symbolic, t + O(t^(k(k-1))).  An
    explicit tail germ may be supplied per site; every stored exponent must
    lie in the surgery ideal [k(k-1), oo) (see `Site.ideal_contains`), and
    an inexact tail must start at or beyond the ideal exponent.  The ideal
    is upward-closed, so the first failing exponent is the lowest one.
    """
    tails = dict(explicit_tails) if explicit_tails else {}
    unknown_sites = set(tails) - {s.index for s in curve.sites}
    if unknown_sites:
        raise ValueError(f"explicit tails given for unknown sites {sorted(unknown_sites)}")
    per: dict[int, LaurentGerm] = {}
    t = LaurentGerm.monomial(1)
    for site in curve.sites:
        k = site.index
        tail = tails.get(k)
        if tail is None:
            per[k] = LaurentGerm({1: 1}, site.ideal_exponent())
            continue
        verdict = tail.exponents_within(site.ideal_contains, site.ideal_exponent())
        if verdict.is_no:
            raise ValueError(
                f"tail exponent {verdict.witness} at site {k} is outside the surgery ideal"
                f" (needs k(k-1) = {site.ideal_exponent()} plus an admissible shift)"
            )
        if verdict.is_unknown:
            raise ValueError(
                f"tail truncation O(t^{tail.tail_bound}) at site {k} reaches below the"
                f" ideal exponent {site.ideal_exponent()}"
            )
        per[k] = t + tail
    return GlobalSection(per)


def no_global_power_witness(
    curve: SurgeryCurve, n: int, section: GlobalSection | None = None
) -> int:
    """Site index certifying that the n-th power of the section fails to be
    holomorphic on the whole glued curve.

    Closed form: site n+1.  Above n the obstruction is unconditional: the
    power has lowest exponent n, and 0 < n < k lies below every nonzero
    member of <k, k+1>, while the ideal tail starts at k(k-1) > n and cannot
    interfere.  So for every section `make_global_rado` builds, the decision
    at site n+1 is CertainlyNo; the scan onward to maxK only matters for a
    hand-built section.  Sites at or below n carry no uniform guarantee and
    are never searched.
    """
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    if curve.max_index <= n:
        raise NoWitnessInRange(
            f"no site with index above {n}; rebuild with maxK >= {n + 1}"
        )
    if section is None:
        section = make_global_rado(curve)
    for site in curve.sites[n - 1:]:
        if site.decision_for_power(section.germ_at(site.index), n).is_no:
            return site.index
    raise NoWitnessInRange(
        f"no certainly-failing site above {n} up to maxK = {curve.max_index}"
    )


def n_omega(curve: SurgeryCurve, region_max_index: int) -> int:
    """Uniform power bound for the region holding sites 2..K: the largest
    local conductor, (K-1)K, since the conductor (k-1)k of <k, k+1> grows
    with k.

    Every germ vanishing at its cusp (lowest exponent >= 1) has all powers
    n >= n_omega holomorphic at every site of the region, because the n-th
    power only carries exponents >= n.  One step lower fails: at site K the
    germ t to the power (K-1)K - 1 hits the Frobenius gap of <K, K+1>.
    """
    K = region_max_index
    if not 2 <= K <= curve.max_index:
        raise ValueError(f"region index must lie in 2..{curve.max_index}, got {K}")
    return (K - 1) * K


class PowerCheckReport(NamedTuple):
    power: int
    per_site: Mapping[int, Decision]
    aggregate: Decision


def check_section_power(
    curve: SurgeryCurve, section: GlobalSection, n: int, region_max_index: int
) -> PowerCheckReport:
    """Per-site holomorphy decisions for the n-th power over sites 2..K."""
    if n < 1:
        raise ValueError(f"power must be >= 1, got {n}")
    K = region_max_index
    if not 2 <= K <= curve.max_index:
        raise ValueError(f"region index must lie in 2..{curve.max_index}, got {K}")
    per = {
        site.index: site.decision_for_power(section.germ_at(site.index), n)
        for site in curve.sites[:K - 1]
    }
    return PowerCheckReport(
        power=n, per_site=per, aggregate=aggregate_decisions(per.values())
    )
