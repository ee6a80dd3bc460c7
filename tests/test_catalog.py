"""Named map catalog: coefficient models vs closed forms."""

import numpy as np
import pytest

from bohrmap import (
    ALIASES,
    MAP_NAMES,
    NamedMap,
    closed_form_eval,
    eval_harmonic,
    make_map,
    resolve_name,
)
from bohrmap.catalog import MAP

# frozen reference values, high-precision evaluation of the closed forms
F0_AT_01 = 0.13005187368251766
KOEBE_AT_MINUS_0999 = -0.24999993743745309


def _spec(name, order=300):
    k = 0.5 if MAP[name].parametric else None
    return NamedMap(name, k=k, order=order)


class TestNamedMap:
    def test_resolve_aliases(self):
        assert resolve_name("koebe") == "koebe_analytic"
        assert resolve_name("f0") == "f0_sharp"
        assert resolve_name("K") == "harmonic_koebe_K"
        assert resolve_name("L") == "half_plane_L"
        assert resolve_name("half_plane") == "half_plane_analytic"
        assert resolve_name("p_k") == "p_k"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            NamedMap("not_a_map")

    def test_k_required_only_for_parametric(self):
        with pytest.raises(ValueError):
            NamedMap("p_k")
        with pytest.raises(ValueError):
            NamedMap("koebe_analytic", k=0.5)
        NamedMap("q_k", k=0.25)

    def test_k_range(self):
        with pytest.raises(ValueError):
            NamedMap("p_k", k=-0.1)
        with pytest.raises(ValueError):
            NamedMap("p_k", k=1.5)

    def test_all_aliases_resolve_to_catalog_names(self):
        for alias, target in ALIASES.items():
            assert target in MAP_NAMES


class TestCoefficientModels:
    def test_koebe(self):
        f = make_map(NamedMap("koebe_analytic", order=6))
        assert np.array_equal(f.h.coeffs.real, [0, 1, 2, 3, 4, 5, 6])
        assert np.all(f.g.coeffs == 0.0)

    def test_half_plane(self):
        f = make_map(NamedMap("half_plane_analytic", order=5))
        assert np.array_equal(f.h.coeffs.real, [0, 1, 1, 1, 1, 1])

    def test_harmonic_koebe(self):
        f = make_map(NamedMap("harmonic_koebe_K", order=4))
        m = np.arange(5.0)
        assert np.allclose(f.h.coeffs.real, (m + 1) * (2 * m + 1) / 6 * (m >= 1))
        assert np.allclose(f.g.coeffs.real, (m - 1) * (2 * m - 1) / 6 * (m >= 1))
        assert f.g.coeffs[1] == 0.0

    def test_half_plane_l(self):
        f = make_map(NamedMap("half_plane_L", order=4))
        assert np.allclose(f.h.coeffs.real, [0, 1, 1.5, 2, 2.5])
        assert np.allclose(f.g.coeffs.real, [0, 0, -0.5, -1, -1.5])

    def test_f0(self):
        f = make_map(NamedMap("f0_sharp", order=5))
        m = np.arange(2.0, 6.0)
        assert np.array_equal(f.h.coeffs.real[1:], np.arange(1.0, 6.0))
        assert np.allclose(f.g.coeffs.real[2:], (m - 1) ** 2 / m)

    def test_p_and_q(self):
        p = make_map(NamedMap("p_k", k=0.5, order=3))
        assert np.allclose(p.h.coeffs.real, [0, 1, 2, 3])
        assert np.allclose(p.g.coeffs.real, [0, 0.5, 1.0, 1.5])
        q = make_map(NamedMap("q_k", k=0.5, order=3))
        assert np.allclose(q.h.coeffs.real, [0, 1, 1, 1])
        assert np.allclose(q.g.coeffs.real, [0, 0.5, 0.5, 0.5])

    def test_all_normalized(self):
        for name in MAP_NAMES:
            f = make_map(_spec(name, order=10))
            assert f.h.coeffs[0] == 0.0 and f.h.coeffs[1] == 1.0
            assert f.g.coeffs[0] == 0.0


class TestClosedForms:
    def test_f0_frozen_value(self):
        v = closed_form_eval(NamedMap("f0_sharp"), 0.1)
        assert v.real == pytest.approx(F0_AT_01, rel=1e-14)
        assert v.imag == pytest.approx(0.0, abs=1e-16)

    def test_koebe_frozen_value_near_boundary(self):
        v = closed_form_eval(NamedMap("koebe_analytic"), -0.999)
        assert v.real == pytest.approx(KOEBE_AT_MINUS_0999, rel=1e-14)

    def test_koebe_quarter_limit(self):
        # z/(1-z)^2 -> -1/4 as z -> -1
        v = closed_form_eval(NamedMap("koebe_analytic"), -0.9999999)
        assert v.real == pytest.approx(-0.25, abs=1e-7)

    @pytest.mark.parametrize("name", MAP_NAMES)
    def test_series_matches_closed_form(self, name):
        spec = _spec(name)
        f = make_map(spec)
        z = 0.3 * np.exp(1j * np.linspace(0.0, 2 * np.pi, 17))
        series_vals = eval_harmonic(f, z)
        closed_vals = closed_form_eval(spec, z)
        assert np.max(np.abs(series_vals - closed_vals)) < 1e-10

    def test_zero_maps_to_zero(self):
        for name in MAP_NAMES:
            assert closed_form_eval(_spec(name), 0.0) == 0.0

    def test_rejects_boundary_and_beyond(self):
        with pytest.raises(ValueError):
            closed_form_eval(NamedMap("koebe_analytic"), 1.0)
        with pytest.raises(ValueError):
            closed_form_eval(NamedMap("f0_sharp"), 1.2 + 0j)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            closed_form_eval(NamedMap("koebe_analytic"), np.nan)

    def test_vectorized_shape(self):
        z = np.array([0.1, 0.2j, -0.3])
        out = closed_form_eval(NamedMap("half_plane_L"), z)
        assert out.shape == (3,)


class TestBoundAttainment:
    def test_koebe_bounds_subordinate_moduli(self):
        # |c_m| <= m for anything subordinate to the koebe map; the map
        # itself attains equality
        f = make_map(NamedMap("koebe_analytic", order=200))
        m = np.arange(201.0)
        assert np.array_equal(np.abs(f.h.coeffs), m)

    def test_harmonic_koebe_attains_quadratic_growth(self):
        f = make_map(NamedMap("harmonic_koebe_K", order=200))
        m = np.arange(1.0, 201.0)
        expected = (2 * m * m + 1) / 3  # |a_m| + |b_m|
        assert np.allclose(f.coefficient_moduli()[1:], expected, rtol=1e-14)
