"""Schwarz compositions and coefficient domination."""

from fractions import Fraction

import numpy as np
import pytest

from bohrmap import (
    DOMINATION_TOL,
    HarmonicMap,
    NamedMap,
    PowerSeries,
    RadiusProblem,
    bohr_partial_sum,
    check_domination,
    check_harmonic_subordination_bound,
    compose,
    domination_campaign,
    make_map,
    monomial_schwarz,
    random_schwarz,
    schwarz_sup,
    subordinate,
)
from bohrmap import subordination
from bohrmap.bohr import _rounding_bound, _sums
from bohrmap.subordination import DOMINATION_GRID
from test_bohr import FRACTION_BITS, exact_sums
from test_series import uncached_compose


def blaschke(zeros, rotation):
    """The order-200 Blaschke product random_schwarz draws, as a checked Schwarz function."""
    series = subordination._blaschke_product(zeros, rotation, 200)
    return subordination._checked(series, f"blaschke({zeros}, {rotation})")


class TestSchwarzConstruction:
    def test_scaled_identity(self):
        psi = monomial_schwarz(0.5, 1)
        assert np.array_equal(psi.series.coeffs, [0.0, 0.5])

    def test_scaled_identity_rejects_large(self):
        with pytest.raises(ValueError):
            monomial_schwarz(1.5, 1)

    def test_monomial(self):
        psi = monomial_schwarz(0.5j, 3)
        assert psi.series.coeffs[3] == 0.5j
        assert np.count_nonzero(psi.series.coeffs) == 1
        with pytest.raises(ValueError):
            monomial_schwarz(0.5, 0)

    def test_blaschke_single_zero_at_origin(self):
        # zero at w = 0 contributes a plain factor z
        psi = blaschke([0.0], 0.3)
        assert psi.series.coeffs[2] == pytest.approx(np.exp(0.3j))
        assert abs(psi.series.coeffs[1]) < 1e-15

    def test_blaschke_sup_below_one(self):
        psi = blaschke([0.4, -0.2 + 0.3j], 1.0)
        assert schwarz_sup(psi.series) <= 1.0 + 1e-6

    def test_random_is_reproducible(self):
        a = random_schwarz(7, 3)
        b = random_schwarz(7, 3)
        assert np.array_equal(a.series.coeffs, b.series.coeffs)
        c = random_schwarz(8, 3)
        assert not np.array_equal(a.series.coeffs, c.series.coeffs)

    def test_random_degree_bounds(self):
        random_schwarz(1, 0)  # pure rotation is allowed
        random_schwarz(1, 8)
        with pytest.raises(ValueError):
            random_schwarz(1, 9)

    def test_random_params_describe_the_draw(self):
        # campaign reports print the description: it must name the draw
        assert random_schwarz(12, 2).description == "random(seed=12, degree=2)"

    def test_sup_on_raw_series(self):
        # sup over |z| = 0.999 of 1.2 z exceeds 1: such a series is not a
        # Schwarz function and the constructors refuse to wrap it
        assert schwarz_sup(PowerSeries([0.0, 1.2])) > 1.0
        with pytest.raises(ValueError):
            monomial_schwarz(1.2, 1)

    def test_failed_check_is_a_value_error_naming_the_draw(self):
        # at order 20 the truncated product overshoots the unit circle
        failed = "^Schwarz check failed for "
        with pytest.raises(ValueError, match=failed + r"random\(seed=1, degree=2\): sup"):
            random_schwarz(1, 2, order=20)

    def test_each_draw_checks_its_sup_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            subordination, "schwarz_sup", lambda s: calls.append(s) or schwarz_sup(s)
        )
        psi = random_schwarz(5, 3)
        assert calls == [psi.series]


class TestSubordinate:
    def test_identity_composition_is_identity(self):
        f = make_map(NamedMap("koebe_analytic", order=100)).h
        psi = monomial_schwarz(1.0, 1)
        comp = subordinate(f, psi)
        assert np.allclose(comp.coeffs, f.truncated(comp.order).coeffs)

    def test_rotation_preserves_moduli(self):
        f = make_map(NamedMap("koebe_analytic", order=150)).h
        psi = monomial_schwarz(np.exp(0.7j), 1)
        comp = subordinate(f, psi)
        assert np.allclose(
            np.abs(comp.coeffs), np.abs(f.truncated(comp.order).coeffs), atol=1e-12
        )

    def test_harmonic_composes_componentwise(self):
        f = make_map(NamedMap("half_plane_L", order=120))
        psi = monomial_schwarz(1.0, 2)
        comp = subordinate(f, psi)
        assert isinstance(comp, HarmonicMap)
        direct_h = subordinate(f.h, psi)
        assert np.array_equal(comp.h.coeffs, direct_h.coeffs)

    def test_square_substitution_spreads_coefficients(self):
        f = make_map(NamedMap("half_plane_analytic", order=40)).h
        comp = subordinate(f, monomial_schwarz(1.0, 2))
        assert np.allclose(comp.coeffs[2::2], 1.0)
        assert np.allclose(comp.coeffs[1::2], 0.0)


class TestDomination:
    def test_identity_margin_zero(self):
        f = make_map(NamedMap("koebe_analytic", order=200)).h
        margin = check_domination(f, monomial_schwarz(1.0, 1))
        assert margin == 0.0

    def test_koebe_square_margin_at_one_third(self):
        # sum m r^{2m} vs sum m r^m on the grid up to r = 1/3: the difference
        # r/(1-r)^2 - r^2/(1-r^2)^2 grows with r (39/64 at 1/3), so the
        # margin is its closed form at the grid's first point
        f = make_map(NamedMap("koebe_analytic", order=200)).h
        margin = check_domination(f, monomial_schwarz(1.0, 2))
        r = DOMINATION_GRID[0]
        assert DOMINATION_GRID[-1] == 1.0 / 3.0
        assert margin == pytest.approx(r / (1 - r) ** 2 - r**2 / (1 - r**2) ** 2, rel=1e-12)

    def test_rotation_keeps_margin_nonnegative(self):
        f = make_map(NamedMap("half_plane_analytic", order=200)).h
        margin = check_domination(f, monomial_schwarz(np.exp(1.1j), 1))
        assert margin >= -1e-12

    def test_blaschke_composition_dominated(self):
        f = make_map(NamedMap("koebe_analytic", order=200)).h
        psi = blaschke([0.3, -0.5j], 0.2)
        assert check_domination(f, psi) > 0.0

    @pytest.mark.parametrize(
        "name, seed, M", [("koebe_analytic", 7, None), ("half_plane_analytic", 12, 60)]
    )
    def test_margin_is_termwise_moduli_difference(self, name, seed, M):
        # each computed sum is within _rounding_bound of its exact value and
        # the difference rounds once, so the margin is within their total
        f = make_map(NamedMap(name, order=200)).h
        psi = random_schwarz(seed, 1 + seed % 8)
        order = 200 if M is None else M
        base = exact_sums(np.abs(f.truncated(order).coeffs[1:]), DOMINATION_GRID)
        comp = exact_sums(np.abs(compose(f, psi.series, order).coeffs[1:]), DOMINATION_GRID)
        slack = 0
        for b, c in zip(base, comp):
            e = sum(Fraction(float(_rounding_bound(float(s), order))) for s in (b, c))
            slack = max(slack, e + (abs(b - c) + e) / 2**53)
        want = min(b - c for b, c in zip(base, comp))
        got = check_domination(f, psi, M=M)
        assert abs(Fraction(got) - want) <= slack + Fraction(2 * order, 2**FRACTION_BITS)


class TestHarmonicSubordinationBound:
    def test_qk_square_substitution_passes(self):
        base = make_map(NamedMap("q_k", k=0.5, order=200))
        comp = subordinate(base, monomial_schwarz(1.0, 2))
        p = RadiusProblem("thm23_sub_convex", K=3.0)
        prof = check_harmonic_subordination_bound(comp, p)
        assert prof.all_pass
        assert prof.r_grid[-1] < 1.0 / 3.0

    def test_pk_identity_case(self):
        base = make_map(NamedMap("p_k", k=0.5, order=200))
        p = RadiusProblem("thm23_sub", K=3.0)
        prof = check_harmonic_subordination_bound(base, p)
        assert prof.all_pass


class TestCampaign:
    def test_small_campaign_structure(self):
        report = domination_campaign(seeds=range(4))
        assert report["count"] == 8  # two base maps per seed
        assert report["worst_margin"] >= -1e-9
        assert len(report["cases"]) == 8
        case = report["cases"][0]
        assert set(case) == {"seed", "psi", "map", "margin"}

    @pytest.mark.parametrize("margin", [0.0, -0.5 * DOMINATION_TOL, -2.0 * DOMINATION_TOL])
    def test_all_pass_is_the_margin_rule(self, margin, monkeypatch):
        import bohrmap.subordination

        monkeypatch.setattr(
            bohrmap.subordination, "check_domination", lambda f, psi, M: margin
        )
        report = domination_campaign(seeds=range(2))
        assert report["worst_margin"] == margin
        assert report["all_pass"] is (margin >= -DOMINATION_TOL)
        # the CLI prints the report as is: the verdict is its last key
        assert list(report)[-1] == "all_pass"

    @pytest.mark.parametrize("order", [60, 200, 300])
    def test_cases_are_checked_at_the_campaign_order(self, order, monkeypatch):
        import bohrmap.subordination

        seen = []

        def spy(f, psi, M):
            seen.append((f.order, psi.series.order, M))
            return 0.0

        monkeypatch.setattr(bohrmap.subordination, "check_domination", spy)
        domination_campaign(seeds=range(2), order=order)
        assert seen == [(order, order, order)] * 4

    def test_margins_over_200_seeds_equal_an_uncached_computation(self):
        # the campaign reuses base sums and composites; a local formula
        # that recomputes both must give every margin bit for bit
        grid = np.linspace(1.0 / 48.0, 1.0 / 3.0, 16)
        report = domination_campaign()
        cases = iter(report["cases"])
        names = ("koebe_analytic", "half_plane_analytic")
        bases = [make_map(NamedMap(name, order=200)).h for name in names]
        for seed in range(200):
            psi = random_schwarz(seed, 1 + seed % 8, order=200)
            for name, f in zip(names, bases):
                base = _sums(np.abs(f.coeffs[1:]), grid)
                comp = _sums(np.abs(uncached_compose(f, psi.series, 200)[1:]), grid)
                case = next(cases)
                assert (case["seed"], case["map"]) == (seed, name)
                assert case["margin"] == min(b - c for b, c in zip(base, comp))

    def test_campaign_is_deterministic(self):
        a = domination_campaign(seeds=range(3))
        b = domination_campaign(seeds=range(3))
        assert a == b

    def test_empty_campaign_refused(self):
        # a report with no case in it would read as holding
        with pytest.raises(ValueError):
            domination_campaign(seeds=[])
        with pytest.raises(ValueError):
            domination_campaign(seeds=range(2), map_names=())

    def test_single_map_campaign(self):
        report = domination_campaign(
            seeds=range(2), map_names=("half_plane_analytic",)
        )
        assert report["count"] == 2
