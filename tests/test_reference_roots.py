"""High-precision oracle for the radii that the suite pins.

Every root-defined radius equation (thm24, cor25, thm27, thm29, thm210,
thm211) is written out here from its statement, with no call into
``bohrmap``, and solved at 40 digits with mpmath.  The frozen roots in
``test_radii.py`` and ``test_solver.py`` and the four-decimal tables of
the acceptance gate must agree with them, and every bracket the solver
certifies must contain its root.  The closed forms are evaluated the same
way, as stated, and the package's radii must match them over the whole
range of K.
"""

import math

import pytest

mp = pytest.importorskip("mpmath")

from test_acceptance import REFERENCE_4DP, THM210_4DP
from test_radii import COR25_ROOTS
from test_solver import THM27_ROOT, THM210_ROOT

from bohrmap import RadiusProblem, closed_form_radius, solve_radius

DIGITS = 40


def cor25_equation(n):
    # 2r/(1-r)^2 - 2nr/(1-r) - n^2 log(1-r) = 1
    return lambda r: (
        2 * r / (1 - r) ** 2 - 2 * n * r / (1 - r) - n**2 * mp.log(1 - r) - 1
    )


def thm24_equation(k, n):
    # (k+1) r/(1-r)^2 - 2nkr/(1-r) - k n^2 log(1-r) = 1
    return lambda r: (
        (k + 1) * r / (1 - r) ** 2 - 2 * n * k * r / (1 - r) - k * n**2 * mp.log(1 - r) - 1
    )


def thm27_equation(r):
    # r^3 - 3r^2 + 5r = 1
    return r**3 - 3 * r**2 + 5 * r - 1


def thm29_equation(r):
    # 2r^2 - 5r + 1 = 0, signed to increase through the root
    return 5 * r - 2 * r**2 - 1


def thm210_equation(r):
    # 2r(1+r)/(3(1-r)^3) + r/(3(1-r)) = 1
    return 2 * r * (1 + r) / (3 * (1 - r) ** 3) + r / (3 * (1 - r)) - 1


def thm211_equation(r):
    # r/(1-r)^2 = 1
    return r / (1 - r) ** 2 - 1


def solve(f):
    """The root of f in (0.01, 0.9), with its sign change checked 1e-35 either side."""
    with mp.workdps(DIGITS):
        root = mp.findroot(f, (mp.mpf("0.01"), mp.mpf("0.9")), solver="anderson")
        step = mp.mpf("1e-35")
        assert f(root - step) < 0 < f(root + step)
        return root


def assert_rounds_to(root, reference_4dp):
    with mp.workdps(DIGITS):
        ticks = root * 10**4
        # the fourth decimal must not hinge on the digits past 1e-10
        assert abs(ticks - mp.floor(ticks) - mp.mpf("0.5")) > 1e-6
        assert int(mp.nint(ticks)) == round(reference_4dp * 10**4)


@pytest.mark.parametrize("n", sorted(COR25_ROOTS))
def test_cor25_roots_and_their_roundings(n):
    root = solve(cor25_equation(n))
    print(f"cor25 n={n}: root={mp.nstr(root, 30)} reference={REFERENCE_4DP[n]}")
    assert abs(COR25_ROOTS[n] - root) <= 1e-15
    assert_rounds_to(root, REFERENCE_4DP[n])


def test_thm210_root_and_its_rounding():
    root = solve(thm210_equation)
    print(f"thm210: root={mp.nstr(root, 30)} reference={THM210_4DP}")
    assert abs(THM210_ROOT - root) <= 1e-15
    assert_rounds_to(root, THM210_4DP)


def test_thm27_frozen_root():
    assert abs(THM27_ROOT - solve(thm27_equation)) <= 1e-15


ROOT_DEFINED_CASES = (
    [
        pytest.param(RadiusProblem("cor25_monomial", n=n), cor25_equation(n), id=f"cor25-n{n}")
        for n in range(1, 9)
    ]
    + [
        pytest.param(
            RadiusProblem("thm24_monomial", k=k, n=n),
            thm24_equation(mp.mpf(k), n),
            id=f"thm24-k{k}-n{n}",
        )
        for k in (0.1, 0.5, 0.9)
        for n in (1, 2, 3)
    ]
    + [
        pytest.param(RadiusProblem("thm27_mobius"), thm27_equation, id="thm27"),
        pytest.param(RadiusProblem("thm29_convex_direction"), thm29_equation, id="thm29"),
        pytest.param(RadiusProblem("thm210_convex_direction_s0"), thm210_equation, id="thm210"),
        pytest.param(RadiusProblem("thm211_convex"), thm211_equation, id="thm211"),
    ]
)


@pytest.mark.parametrize("problem, equation", ROOT_DEFINED_CASES)
def test_certified_bracket_contains_the_root(problem, equation):
    root = solve(equation)
    cert = solve_radius(problem)
    print(f"{problem.variant}: root={mp.nstr(root, 30)} certified={cert.root!r}")
    with mp.workdps(DIGITS):
        assert cert.lo <= root <= cert.hi


QUASI_RADII = {
    # (5K+1-sqrt(8K(3K+1)))/(K+1)
    "thm12_quasi": lambda K: (5 * K + 1 - mp.sqrt(8 * K * (3 * K + 1))) / (K + 1),
    # (2K+1-sqrt(K(3K+2)))/(K+1)
    "thm23_quasi": lambda K: (2 * K + 1 - mp.sqrt(K * (3 * K + 2))) / (K + 1),
    # min(1/3, thm23 radius)
    "thm23_subordination": lambda K: min(
        mp.mpf(1) / 3, (2 * K + 1 - mp.sqrt(K * (3 * K + 2))) / (K + 1)
    ),
}


@pytest.mark.parametrize("K", [1.0, 3.0, 44266.39115709909, 1e6, 1e300])
@pytest.mark.parametrize("variant", sorted(QUASI_RADII))
def test_quasiconformal_closed_forms(variant, K):
    with mp.workdps(DIGITS):
        exact = QUASI_RADII[variant](mp.mpf(K))
        got = closed_form_radius(RadiusProblem(variant, K=K))
        assert abs(got - exact) <= 1e-15 * exact


ALGEBRAIC_RADII = {
    # stated as 3 - sqrt(8); in binary64 that difference cancels ~10 ulp
    "thm11_univalent": lambda: 3 - mp.sqrt(8),
    "thm29_convex_direction": lambda: (5 - mp.sqrt(17)) / 4,
    # stated as (3 - sqrt(5))/2, whose binary64 difference is ~1 ulp off
    "thm211_convex": lambda: (3 - mp.sqrt(5)) / 2,
}


def test_univalent_closed_form_is_correctly_rounded():
    with mp.workdps(DIGITS):
        for variant, radius in ALGEBRAIC_RADII.items():
            exact = radius()
            got = closed_form_radius(RadiusProblem(variant))
            assert abs(got - exact) <= math.ulp(got) / 2, variant
