"""Schwarz compositions and coefficient domination."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
from fractions import Fraction

import numpy as np
import pytest

from bohrmap import (
    DOMINATION_TOL,
    HarmonicMap,
    NamedMap,
    PowerSeries,
    RadiusProblem,
    SchwarzFunction,
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
    return SchwarzFunction(series, f"blaschke({zeros}, {rotation})")


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
        # Schwarz function and the record refuses it, however it is built
        raw = PowerSeries([0.0, 1.2])
        assert schwarz_sup(raw) > 1.0
        with pytest.raises(ValueError):
            monomial_schwarz(1.2, 1)
        failed = "^Schwarz check failed for "
        with pytest.raises(ValueError, match=failed + "raw: sup"):
            SchwarzFunction(raw, "raw")
        with pytest.raises(ValueError, match=failed):
            dataclasses.replace(monomial_schwarz(0.5, 1), series=raw)

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
        # a copy is rebuilt from values already checked and is not checked again
        copy.deepcopy(psi)
        pickle.loads(pickle.dumps(psi))
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


def package_lrus():
    """Every LRU cache defined at the top level of a bohrmap module, by name."""
    import bohrmap

    found = {}
    for info in pkgutil.iter_modules(bohrmap.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"bohrmap.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                found[f"{module.__name__}.{name}"] = obj
    return found


class TestBaseSumMemo:
    KEY = ("domination sums", 200)

    def test_campaign_and_subordinate_check_leave_every_lru_empty(self):
        lrus = package_lrus()
        assert {"bohrmap.series._unit_roots", "bohrmap.solver._bisection_certificate"} <= set(lrus)
        for cache in lrus.values():
            cache.cache_clear()
        assert domination_campaign(seeds=range(4))["all_pass"]
        p_k = make_map(NamedMap("p_k", k=0.5, order=200))
        comp = subordinate(p_k, random_schwarz(5, 6))
        prof = check_harmonic_subordination_bound(comp, RadiusProblem("thm23_subordination", K=3.0))
        assert prof.all_pass
        assert {name: cache.cache_info().currsize for name, cache in lrus.items()} == dict.fromkeys(lrus, 0)

    def test_base_sums_are_built_once_per_base_object_and_order(self, monkeypatch):
        builds = []

        def spy(moduli, rs):
            builds.append(moduli.copy())
            return _sums(moduli, rs)

        monkeypatch.setattr(subordination, "_sums", spy)
        names = ("koebe_analytic", "half_plane_analytic")
        base_moduli = [np.abs(make_map(NamedMap(n, order=200)).h.coeffs[1:]) for n in names]
        domination_campaign(seeds=range(4), map_names=names)
        is_base = [any(np.array_equal(m, b) for b in base_moduli) for m in builds]
        # one composite per case, the two bases once for the whole campaign
        assert (is_base.count(True), is_base.count(False)) == (2, 8)
        assert is_base[:3] == [True, False, True]

        builds.clear()
        f = make_map(NamedMap("koebe_analytic", order=200)).h
        psis = [random_schwarz(seed, 3) for seed in (1, 2)]
        for psi in psis:
            check_domination(f, psi)
        check_domination(f, psis[0], M=60)
        check_domination(f, psis[1], M=60)
        # per M: the base once, then one composite per check
        assert [len(m) for m in builds] == [200, 200, 200, 60, 60, 60]
        assert {key for key in f._memo if key[0] == "domination sums"} == {self.KEY, ("domination sums", 60)}

    def test_equal_bases_keep_their_own_sums_and_give_the_same_bits(self):
        a = make_map(NamedMap("koebe_analytic", order=200)).h
        b = PowerSeries(a.coeffs)
        assert a == b and a is not b
        for seed in range(6):
            psi = random_schwarz(seed, 1 + seed % 8)
            assert check_domination(a, psi).hex() == check_domination(b, psi).hex()
        assert a._memo[self.KEY] == b._memo[self.KEY]
        assert a._memo[self.KEY] is not b._memo[self.KEY]


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
