"""Certified bisection and the radius front end."""

import json
import math

import numpy as np
import pytest

from bohrmap import solver
from bohrmap import (
    RadiusProblem,
    RootCertificate,
    bracket_root,
    closed_form_radius,
    majorant_value,
    min_rule_radius,
    solve_radius,
)

THM27_ROOT = 0.2290830029407519
THM210_ROOT = 0.3134063681873544
THM24_K05_N1 = 0.36339589155538795


class TestBracketRoot:
    def test_linear_function(self):
        cert = bracket_root(lambda r: 3.0 * r - 1.0, 1e-9, 1 - 1e-9)
        assert cert.root == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert cert.hi - cert.lo <= 1e-13

    def test_rejects_invalid_bracket(self):
        with pytest.raises(ValueError, match="bracket invalid"):
            bracket_root(lambda r: r + 1.0, 0.1, 0.9)
        with pytest.raises(ValueError):
            bracket_root(lambda r: r - 0.5, 0.9, 0.1)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="non-finite"):
            bracket_root(lambda r: np.nan, 0.1, 0.9)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError, match="tol must be positive"):
            bracket_root(lambda r: r - 0.5, 0.1, 0.9, tol=0.0)
        # an infinite width would certify the whole bracket
        with pytest.raises(ValueError, match="tol must be finite"):
            bracket_root(lambda r: r - 0.5, 0.1, 0.9, tol=math.inf)

    def test_exact_zero_hit_is_certified(self):
        # midpoint of the first bisection step is an exact root
        cert = bracket_root(lambda r: r - 0.5, 0.25, 0.75)
        assert cert.root == pytest.approx(0.5, abs=1e-13)
        assert cert.residual == 0.0

    @pytest.mark.parametrize("zero, hi", [(0.25, 0.5), (0.375, 0.75)])
    def test_exact_zero_bracket_stays_within_tol(self, zero, hi):
        # zero +- tol/2 rounds outwards here: the width was 1.00003e-13
        cert = bracket_root(lambda r: r - zero, 0.0, hi)
        assert cert.root == zero and cert.residual == 0.0
        assert cert.lo < zero < cert.hi
        assert cert.hi - cert.lo <= 1e-13

    def test_deterministic(self):
        f = lambda r: r * r + r - 0.5
        a = bracket_root(f, 1e-9, 1 - 1e-9)
        b = bracket_root(f, 1e-9, 1 - 1e-9)
        assert a.root == b.root
        assert a.lo == b.lo and a.hi == b.hi
        assert a.iterations == b.iterations


class TestCertificates:
    def test_invariants_for_majorant_root(self):
        p = RadiusProblem("cor25_monomial", n=1)
        cert = solve_radius(p)
        assert cert.lo <= cert.root <= cert.hi
        assert cert.hi - cert.lo <= 1e-13
        assert majorant_value(p, cert.lo) <= 0.0 <= majorant_value(p, cert.hi)
        assert abs(majorant_value(p, cert.root)) <= 1e-9
        assert cert.monotone_checked

    def test_to_dict_fields(self):
        cert = solve_radius(RadiusProblem("thm27_mobius"))
        d = cert.to_dict()
        assert set(d) == {
            "problem",
            "lo",
            "hi",
            "root",
            "residual",
            "iterations",
            "monotone_checked",
        }
        assert d["problem"]["variant"] == "thm27_mobius"
        json.loads(json.dumps(d))

    @pytest.mark.parametrize(
        "tol, message",
        [(0.0, "tol must be positive"), (math.nan, "tol must be positive"),
         (math.inf, "tol must be finite")],
        ids=["zero", "nan", "inf"],
    )
    def test_closed_form_checks_tol(self, tol, message):
        # the closed form does not use tol, but a bad one is refused as
        # it is for a root-defined variant
        with pytest.raises(ValueError, match=message):
            solve_radius(RadiusProblem("thm11_univalent"), tol=tol)

    def test_degenerate_certificate_for_closed_form(self):
        cert = solve_radius(RadiusProblem("thm11_univalent"))
        assert cert.lo == cert.hi == cert.root
        assert cert.root == pytest.approx(1.0 / (3.0 + math.sqrt(8.0)), rel=1e-15)
        assert cert.iterations == 0
        assert cert.residual == 0.0
        assert not cert.monotone_checked

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, 0.0, 1.0])
    def test_closed_form_outside_unit_interval_is_refused(self, bad, monkeypatch):
        import bohrmap.solver

        monkeypatch.setattr(bohrmap.solver, "closed_form_radius", lambda p: bad)
        with pytest.raises(RuntimeError, match="not in"):
            solve_radius(RadiusProblem("thm23_quasi", K=3.0))


class TestSolveRadius:
    def test_mobius_root_matches_cubic_oracle(self):
        # the majorant vanishes where r^3 - 3r^2 + 5r - 1 = 0
        roots = np.roots([1.0, -3.0, 5.0, -1.0])
        real = min(
            float(z.real) for z in roots if abs(z.imag) < 1e-12 and 0 < z.real < 1
        )
        cert = solve_radius(RadiusProblem("thm27_mobius"))
        assert cert.root == pytest.approx(real, abs=1e-10)
        assert cert.root == pytest.approx(THM27_ROOT, abs=1e-12)

    def test_quintic_direction_root(self):
        cert = solve_radius(RadiusProblem("thm210_convex_direction_s0"))
        assert cert.root == pytest.approx(THM210_ROOT, abs=1e-12)

    def test_monomial_with_half_amplitude(self):
        cert = solve_radius(RadiusProblem("thm24_monomial", k=0.5, n=1))
        assert cert.root == pytest.approx(THM24_K05_N1, abs=1e-12)

    def test_bisected_roots_match_quadratic_closed_forms(self):
        # thm29/thm211 have algebraic roots and are also solved by
        # bisection; the two must agree
        for variant in ("thm29_convex_direction", "thm211_convex"):
            p = RadiusProblem(variant)
            cert = solve_radius(p)
            assert cert.root == pytest.approx(closed_form_radius(p), abs=1e-10)

    def test_cor25_strictly_decreasing_in_n(self):
        roots = [
            solve_radius(RadiusProblem("cor25_monomial", n=n)).root
            for n in range(1, 9)
        ]
        assert all(a > b for a, b in zip(roots, roots[1:]))

    def test_thm24_at_full_amplitude_equals_cor25(self):
        a = solve_radius(RadiusProblem("thm24_monomial", k=1.0, n=3)).root
        b = solve_radius(RadiusProblem("cor25_monomial", n=3)).root
        assert a == pytest.approx(b, abs=1e-10)

    def test_determinism(self):
        p = RadiusProblem("cor25_monomial", n=2)
        a, b = solve_radius(p), solve_radius(p)
        assert a.root == b.root and a.residual == b.residual

    def test_reused_certificate_equals_a_fresh_one_and_names_the_callers_problem(self):
        p = RadiusProblem("thm24_monomial", k=1, n=2)
        twin = RadiusProblem("thm24_monomial", k=1.0, n=2)
        assert twin == p and twin is not p
        solver._bisection_certificate.cache_clear()
        cold = solve_radius(p)
        warm, other = solve_radius(p), solve_radius(twin)
        assert solver._bisection_certificate.cache_info().misses == 1
        assert cold == warm == other
        assert cold.problem is p and warm.problem is p and other.problem is twin
        fields = ("lo", "hi", "root", "residual")
        assert [getattr(warm, f) for f in fields] == [getattr(cold, f) for f in fields]
        assert (warm.iterations, warm.monotone_checked) == (cold.iterations, True)

    def test_loose_tolerance_still_certifies(self):
        cert = solve_radius(RadiusProblem("cor25_monomial", n=1), tol=1e-6)
        assert cert.hi - cert.lo <= 1e-6
        assert abs(cert.root - 0.34838507953206128) < 1e-6


class TestMinRule:
    def test_small_n_clips_to_one_third(self):
        r = min_rule_radius(RadiusProblem("cor25_monomial", n=1))
        assert r == 1.0 / 3.0

    def test_large_n_keeps_root(self):
        p = RadiusProblem("cor25_monomial", n=3)
        assert min_rule_radius(p) == solve_radius(p).root

    def test_quasi_branches(self):
        # base radius exceeds 1/3 for K < 2 and dips below it for K > 2
        assert min_rule_radius(RadiusProblem("thm23_quasi", K=1.0)) == 1.0 / 3.0
        p = RadiusProblem("thm23_quasi", K=5.0)
        assert min_rule_radius(p) == solve_radius(p).root < 1.0 / 3.0

    def test_crossover_rederived_by_bisection(self):
        # the K where the base radius crosses 1/3 is exactly 2
        f = lambda K: closed_form_radius(
            RadiusProblem("thm23_quasi", K=K)
        ) - 1.0 / 3.0
        lo, hi = 1.0, 5.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_non_min_rule_variants(self):
        with pytest.raises(ValueError):
            min_rule_radius(RadiusProblem("thm211_convex"))
