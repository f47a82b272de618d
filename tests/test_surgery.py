"""Glued curve: site layout, global sections, power witnesses, region bounds."""

import random
from fractions import Fraction

import pytest

from cuspgerms import (
    CERTAINLY_YES,
    CuspCurve,
    Decision,
    GlobalSection,
    LaurentGerm,
    NoWitnessInRange,
    PowerCheckReport,
    Site,
    SurgeryCurve,
    WeierstrassPoly,
    check_section_power,
    cli,
    make_global_rado,
    n_omega,
    no_global_power_witness,
    parse_germ,
    validate_star,
)
from independent_oracles import (
    first_refusing_site_scan,
    ideal_contains_by_representation,
    max_site_conductor,
    random_vanishing_germ,
    validate_star_all_pairs,
)

T = LaurentGerm.monomial(1)


# -- sites --------------------------------------------------------------------


def test_standard_site_layout():
    s = Site(3)
    assert s.index == 3
    assert s.center == Fraction(3)
    assert s.radius == Fraction(1, 3)
    assert (s.curve.p, s.curve.q) == (3, 4)


def test_site_rejects_bad_index():
    with pytest.raises(ValueError):
        Site(1)


def test_ideal_exponent_and_membership():
    s = Site(3)
    assert s.ideal_exponent() == 6
    assert s.ideal_contains(6)  # 3 + 3
    assert s.ideal_contains(7)  # 3 + 4
    assert s.ideal_contains(8)  # 4 + 4
    assert not s.ideal_contains(4)
    assert not s.ideal_contains(5)
    assert not s.ideal_contains(-1)
    # the ideal is exactly [k(k-1), oo) at exponent level
    for k in (2, 3, 5, 8):
        site = Site(k)
        base = site.ideal_exponent()
        assert all(site.ideal_contains(e) for e in range(base, base + 60))
        assert not any(site.ideal_contains(e) for e in range(0, base))


# -- disk validation -------------------------------------------------------------


def test_validate_star_standard_layouts():
    for max_k in (2, 5, 12):
        assert validate_star(SurgeryCurve.build_standard(max_k).sites)


def test_validate_star_single_site():
    assert validate_star([Site(2)])


def test_validate_star_rejects_overlap():
    overlapping = [Site(2, center=0), Site(3, center=Fraction(1, 2))]
    assert not validate_star(overlapping)


def test_validate_star_rejects_touching_disks():
    touching = [Site(2, center=0), Site(3, center=Fraction(2, 3))]
    assert not validate_star(touching)


# -- glued curve ------------------------------------------------------------------


def test_build_standard_examples():
    x2 = SurgeryCurve.build_standard(2)
    assert len(x2.sites) == 1
    assert (x2.sites[0].curve.p, x2.sites[0].curve.q) == (2, 3)
    x5 = SurgeryCurve.build_standard(5)
    assert [s.index for s in x5.sites] == [2, 3, 4, 5]
    with pytest.raises(ValueError):
        SurgeryCurve.build_standard(1)


def test_site_lookup():
    x = SurgeryCurve.build_standard(6)
    assert x.site(4).index == 4
    with pytest.raises(ValueError):
        x.site(7)
    with pytest.raises(ValueError):
        x.site(1)


def test_sites_must_be_consecutive():
    with pytest.raises(ValueError):
        SurgeryCurve([Site(2), Site(4)])
    with pytest.raises(ValueError):
        SurgeryCurve([Site(3)])


def test_surgery_curve_rejects_overlapping_disks():
    for second in (0, Fraction(1, 2), Fraction(2, 3)):  # equal, overlapping, touching
        with pytest.raises(ValueError, match="^surgery disks overlap$"):
            SurgeryCurve([Site(2, center=0), Site(3, center=second)])
    # a custom layout whose disks are disjoint is accepted
    x = SurgeryCurve([Site(2, center=1), Site(3, center=0), Site(4, center=-1)])
    assert x.max_index == 4


# -- canonical section --------------------------------------------------------------


def test_default_section_tails():
    x = SurgeryCurve.build_standard(5)
    section = make_global_rado(x)
    assert section.germ_at(3) == parse_germ("t + O(t^6)")
    assert section.germ_at(5) == parse_germ("t + O(t^20)")
    for site in x.sites:
        g = section.germ_at(site.index)
        assert g.lowest_exponent() == 1
        assert g.tail_bound == site.ideal_exponent()


def test_explicit_tail_accepted():
    x = SurgeryCurve.build_standard(5)
    section = make_global_rado(x, {3: LaurentGerm.monomial(6)})
    assert section.germ_at(3) == parse_germ("t + t^6")
    assert section.germ_at(2).tail_bound == 2  # other sites keep the default


def test_explicit_inexact_tail_accepted_at_or_beyond_ideal():
    x = SurgeryCurve.build_standard(5)
    section = make_global_rado(x, {3: parse_germ("t^7 + O(t^9)")})
    assert section.germ_at(3) == parse_germ("t + t^7 + O(t^9)")


def test_explicit_tail_rejected_below_ideal():
    x = SurgeryCurve.build_standard(5)
    with pytest.raises(ValueError):
        make_global_rado(x, {3: LaurentGerm.monomial(4)})
    with pytest.raises(ValueError):
        make_global_rado(x, {3: LaurentGerm.tail_only(4)})
    with pytest.raises(ValueError):
        make_global_rado(x, {9: LaurentGerm.monomial(80)})  # no such site


def test_section_missing_site():
    section = GlobalSection({2: T})
    with pytest.raises(ValueError):
        section.germ_at(3)


# -- power witnesses ------------------------------------------------------------------


def test_witness_examples():
    x = SurgeryCurve.build_standard(12)
    assert no_global_power_witness(x, 1) == 2
    assert no_global_power_witness(x, 4) == 5
    assert no_global_power_witness(x, 5) == 6
    assert no_global_power_witness(x, 11) == 12


def test_witness_at_scale():
    x = SurgeryCurve.build_standard(101)
    assert no_global_power_witness(x, 100) == 101


def test_witness_decision_is_certain():
    x = SurgeryCurve.build_standard(8)
    section = make_global_rado(x)
    k = no_global_power_witness(x, 3, section)
    assert k == 4
    decision = x.site(k).decision_for_power(section.germ_at(k), 3)
    assert decision.is_no


def test_witness_errors():
    x = SurgeryCurve.build_standard(5)
    with pytest.raises(NoWitnessInRange):
        no_global_power_witness(x, 5)
    with pytest.raises(NoWitnessInRange):
        no_global_power_witness(x, 7)
    with pytest.raises(ValueError):
        no_global_power_witness(x, 0)


# -- region bounds ---------------------------------------------------------------------


def test_n_omega_examples():
    x = SurgeryCurve.build_standard(12)
    assert n_omega(x, 2) == 2
    assert n_omega(x, 5) == 20
    values = [n_omega(x, K) for K in range(2, 13)]
    assert values == sorted(values)
    assert values == [(K - 1) * K for K in range(2, 13)]
    with pytest.raises(ValueError):
        n_omega(x, 1)
    with pytest.raises(ValueError):
        n_omega(x, 13)


def test_n_omega_sharpness():
    x = SurgeryCurve.build_standard(12)
    for K in range(2, 13):
        bound = n_omega(x, K)
        decision = x.site(K).decision_for_power(T, bound - 1)
        assert decision.is_no, K


def test_check_section_power_at_bound():
    x = SurgeryCurve.build_standard(12)
    section = make_global_rado(x)
    for K in (2, 5, 12):
        bound = n_omega(x, K)
        report = check_section_power(x, section, bound, K)
        assert report.aggregate.is_yes
        assert sorted(report.per_site) == list(range(2, K + 1))
        assert all(d.is_yes for d in report.per_site.values())


def test_check_section_power_below_bound():
    x = SurgeryCurve.build_standard(5)
    report = check_section_power(x, make_global_rado(x), 1, 2)
    assert report.per_site[2].is_no
    assert report.aggregate.is_no


def test_check_section_power_with_explicit_tail():
    x = SurgeryCurve.build_standard(5)
    section = make_global_rado(x, {3: LaurentGerm.monomial(6)})
    report = check_section_power(x, section, 2, 3)
    expected = (parse_germ("t + t^6") ** 2)
    assert expected == parse_germ("t^2 + 2*t^7 + t^12")
    assert report.per_site[3] == x.site(3).curve.is_holomorphic_at_cusp(expected)
    assert report.per_site[3].is_no  # 2 is not in <3,4>
    assert report.per_site[2].is_yes


def test_check_section_power_validates_inputs():
    x = SurgeryCurve.build_standard(5)
    section = make_global_rado(x)
    with pytest.raises(ValueError):
        check_section_power(x, section, 0, 3)
    with pytest.raises(ValueError):
        check_section_power(x, section, 2, 6)


def test_site_power_decisions_build_no_powers(monkeypatch, capsys):
    x = SurgeryCurve.build_standard(12)
    section = make_global_rado(x, {4: parse_germ("t^12 + O(t^20)")})
    argv = ["theorem1", "bound", "--max-k", "12", "--region", "5"]

    def tables():
        return [{k: (d.kind, d.reason, d.witness)
                 for k, d in check_section_power(x, section, n, 12).per_site.items()}
                for n in (1, 3, 30)]

    expected = tables()
    assert cli.main(argv) == 0
    expected_out = capsys.readouterr().out

    def no_power(self, n):
        raise AssertionError("a germ power was built")

    monkeypatch.setattr(LaurentGerm, "__pow__", no_power)
    assert tables() == expected
    assert no_global_power_witness(x, 5, section) == 6
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == expected_out


def test_records_keep_fields_equality_and_repr():
    germs = {2: T, 3: T + LaurentGerm.tail_only(6)}
    section = GlobalSection(per_site=germs)
    assert section.per_site is germs
    assert section == GlobalSection(dict(germs)) and section != GlobalSection({2: T})
    assert repr(section) == (
        "GlobalSection(per_site={2: LaurentGerm('t'), 3: LaurentGerm('t + O(t^6)')})")

    glued = SurgeryCurve.build_standard(3)
    report = check_section_power(glued, make_global_rado(glued), 3, 3)
    assert (report.power, report.per_site, report.aggregate) == (
        3, {2: CERTAINLY_YES, 3: CERTAINLY_YES}, CERTAINLY_YES)
    assert report == PowerCheckReport(power=3, per_site=dict(report.per_site),
                                      aggregate=CERTAINLY_YES)
    assert report != PowerCheckReport(4, report.per_site, CERTAINLY_YES)
    assert report != PowerCheckReport(3, report.per_site, Decision("unknown", "x"))
    yes = "Decision(kind='yes', reason=None, witness=None)"
    assert repr(report) == (
        f"PowerCheckReport(power=3, per_site={{2: {yes}, 3: {yes}}}, aggregate={yes})")

    poly = WeierstrassPoly(degree=3, inner_degree=3, z_exponent=2, multiplicity=1)
    assert (poly.degree, poly.inner_degree, poly.z_exponent, poly.multiplicity) == (3, 3, 2, 1)
    assert poly == CuspCurve(3, 4).weierstrass(2) == WeierstrassPoly.for_monomial(3, 2)
    assert poly != CuspCurve(3, 4).weierstrass(3)
    assert hash(poly) == hash(WeierstrassPoly.for_monomial(3, 2))
    assert repr(poly) == "WeierstrassPoly('T^3 - z^2')"
    assert repr(WeierstrassPoly.for_monomial(4, 2)) == "WeierstrassPoly('(T^2 - z)^2')"


# -- truncation soundness -----------------------------------------------------------------


def test_explicit_tail_never_flips_certain_decisions():
    """Replacing the unknown tail by an admissible explicit tail preserves
    every CertainlyYes/CertainlyNo of the default section."""
    rng = random.Random(7)
    x = SurgeryCurve.build_standard(4)
    default = make_global_rado(x)
    for site in x.sites:
        k = site.index
        base = site.ideal_exponent()
        for _ in range(8):
            exponents = rng.sample(range(base, base + 12), rng.randint(1, 3))
            tail = LaurentGerm({e: rng.choice([1, -1, 2]) for e in exponents})
            explicit = make_global_rado(x, {k: tail})
            for n in range(1, base + 6):
                certain = site.decision_for_power(default.germ_at(k), n)
                if certain.is_unknown:
                    continue
                exact = site.decision_for_power(explicit.germ_at(k), n)
                assert exact.kind == certain.kind, (k, n, tail.to_str())


def test_vanishing_germs_closed_under_product():
    rng = random.Random(11)
    for _ in range(50):
        a = LaurentGerm.monomial(rng.randint(1, 5), rng.choice([1, -2, 3]))
        b = parse_germ("t + O(t^4)") if rng.random() < 0.5 else LaurentGerm.monomial(
            rng.randint(1, 4))
        product = a * b
        assert product.lowest_exponent() >= 2
        if product.tail_bound is not None:
            assert product.tail_bound > product.lowest_exponent()


# -- closed forms against scan oracles -----------------------------------------------------


def test_ideal_contains_matches_representation_oracle():
    for k in range(2, 61):
        site = Site(k)
        for e in range(-5, k * k + 3 * k + 1):
            assert site.ideal_contains(e) == ideal_contains_by_representation(k, e), (k, e)


def test_validate_star_matches_all_pairs_oracle():
    rng = random.Random(23)
    grid = [Fraction(a, d) for d in (1, 2, 3, 6) for a in range(-6, 7)]
    radii = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    seen = {"valid": 0, "invalid": 0, "touching": 0}
    for _ in range(3000):
        sites: list[Site] = []
        for i in range(rng.randint(0, 7)):
            radius = rng.choice(radii)
            if sites and rng.random() < 0.3:
                other = rng.choice(sites)
                center = other.center + rng.choice([-1, 1]) * (other.radius + radius)
                seen["touching"] += 1
            else:
                center = rng.choice(grid)
            sites.append(Site(2 + i, center=center, radius=radius))
        rng.shuffle(sites)
        expected = validate_star_all_pairs(sites)
        assert validate_star(sites) == expected, sites
        seen["valid" if expected else "invalid"] += 1
    assert min(seen.values()) > 100, seen


def test_n_omega_matches_max_site_conductor_oracle():
    x = SurgeryCurve.build_standard(40)
    for K in range(2, 41):
        assert n_omega(x, K) == max_site_conductor(x, K), K


def test_witness_matches_scan_oracle_with_random_explicit_tails():
    rng = random.Random(31)
    x = SurgeryCurve.build_standard(7)
    for _ in range(40):
        tails = {}
        for site in rng.sample(x.sites, rng.randint(1, 4)):
            base = site.ideal_exponent()
            exponents = rng.sample(range(base, base + 10), rng.randint(1, 3))
            bound = rng.choice([None, base + 10, base + 14])
            tails[site.index] = LaurentGerm(
                {e: rng.choice([1, -1, 2, Fraction(-1, 3)]) for e in exponents}, bound)
        section = make_global_rado(x, tails)
        for n in range(1, 7):
            expected = first_refusing_site_scan(x, n, section)
            assert expected == n + 1
            assert no_global_power_witness(x, n, section) == expected


def test_witness_scans_past_non_refusing_site_of_hand_built_section():
    x = SurgeryCurve.build_standard(6)
    germs = {2: T, 3: T ** 2, 4: T, 5: T, 6: T}  # (t^2)^2 = t^4 lies in <3, 4>
    section = GlobalSection(germs)
    assert not x.site(3).decision_for_power(germs[3], 2).is_no
    assert first_refusing_site_scan(x, 2, section) == 4
    assert no_global_power_witness(x, 2, section) == 4


def test_witness_matches_scan_oracle_on_random_hand_built_sections():
    rng = random.Random(37)
    x = SurgeryCurve.build_standard(7)
    outcomes = set()
    for _ in range(150):
        section = GlobalSection(
            {site.index: random_vanishing_germ(rng, max_width=3) for site in x.sites})
        for n in range(1, 7):
            expected = first_refusing_site_scan(x, n, section)
            if expected is None:
                with pytest.raises(NoWitnessInRange):
                    no_global_power_witness(x, n, section)
            else:
                assert no_global_power_witness(x, n, section) == expected, (n, section)
            outcomes.add("none" if expected is None
                         else "first" if expected == n + 1 else "later")
    assert outcomes == {"none", "first", "later"}


def test_explicit_tail_error_names_lowest_offending_exponent():
    x = SurgeryCurve.build_standard(5)
    with pytest.raises(ValueError, match="tail exponent 4 at site 3 is outside"):
        make_global_rado(x, {3: parse_germ("t^4 + t^5 + t^9")})
