"""Schwarz compositions and coefficient domination."""

import math

import numpy as np
import pytest

from bohrmap import (
    DOMINATION_TOL,
    HarmonicMap,
    NamedMap,
    PowerSeries,
    RadiusProblem,
    blaschke_schwarz,
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
        psi = blaschke_schwarz([0.0], rotation=0.3)
        assert psi.series.coeffs[2] == pytest.approx(np.exp(0.3j))
        assert abs(psi.series.coeffs[1]) < 1e-15

    def test_blaschke_sup_below_one(self):
        psi = blaschke_schwarz([0.4, -0.2 + 0.3j], rotation=1.0)
        assert schwarz_sup(psi.series) <= 1.0 + 1e-6

    def test_blaschke_rejects_zero_outside_disk(self):
        with pytest.raises(ValueError):
            blaschke_schwarz([1.0])
        with pytest.raises(ValueError):
            blaschke_schwarz([1.1j])
        blaschke_schwarz([0.95])  # inside the disk: fine

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
        # sum m (1/3)^{2m} vs sum m (1/3)^m: margin is exactly 39/64 - r/(1-r)^2
        # evaluated termwise; frozen closed-form value
        f = make_map(NamedMap("koebe_analytic", order=200)).h
        margin = check_domination(
            f, monomial_schwarz(1.0, 2), r_grid=np.array([1.0 / 3.0])
        )
        assert margin == pytest.approx(0.609375, rel=1e-12)

    def test_rotation_keeps_margin_nonnegative(self):
        f = make_map(NamedMap("half_plane_analytic", order=200)).h
        margin = check_domination(f, monomial_schwarz(np.exp(1.1j), 1))
        assert margin >= -1e-12

    def test_blaschke_composition_dominated(self):
        f = make_map(NamedMap("koebe_analytic", order=200)).h
        psi = blaschke_schwarz([0.3, -0.5j], rotation=0.2)
        assert check_domination(f, psi) > 0.0

    def test_grid_validation(self):
        f = make_map(NamedMap("koebe_analytic", order=200)).h
        with pytest.raises(ValueError):
            check_domination(f, monomial_schwarz(0.5, 1), r_grid=np.array([0.4]))
        # no point checked is no proof
        with pytest.raises(ValueError):
            check_domination(f, monomial_schwarz(0.5, 1), r_grid=[])
        # NaN fails every comparison, so it must not read as in range
        with pytest.raises(ValueError):
            check_domination(f, monomial_schwarz(0.5, 1), r_grid=[0.1, math.nan])

    @pytest.mark.parametrize(
        "name, seed, M, r_grid",
        [("koebe_analytic", 7, None, None),
         ("half_plane_analytic", 12, 60, [0.05, 0.2, 1.0 / 3.0])],
    )
    def test_margin_is_termwise_moduli_difference(self, name, seed, M, r_grid):
        f = make_map(NamedMap(name, order=200)).h
        psi = random_schwarz(seed, 1 + seed % 8)
        order = 200 if M is None else M
        rs = np.linspace(1.0 / 48.0, 1.0 / 3.0, 16) if r_grid is None else r_grid
        m = np.arange(1, order + 1, dtype=np.float64)
        base = np.abs(f.truncated(order).coeffs[1:])
        comp = np.abs(compose(f, psi.series, order).coeffs[1:])
        want = min(
            float(base @ float(r) ** m) - float(comp @ float(r) ** m) for r in rs
        )
        assert check_domination(f, psi, r_grid=r_grid, M=M) == want


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

        monkeypatch.setattr(bohrmap.subordination, "check_domination", lambda f, psi: margin)
        report = domination_campaign(seeds=range(2))
        assert report["worst_margin"] == margin
        assert report["all_pass"] is (margin >= -DOMINATION_TOL)
        # the CLI prints the report as is: the verdict is its last key
        assert list(report)[-1] == "all_pass"

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
