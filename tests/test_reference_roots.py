"""High-precision oracle for the radii that the suite pins.

The cor25 and thm210 radius equations are written out here from their
statements, with no call into ``bohrmap``, and solved at 40 digits with
mpmath.  The frozen roots in ``test_radii.py`` and ``test_solver.py`` and
the four-decimal tables of the acceptance gate must agree with them.  The
quasiconformal closed forms are evaluated the same way, as stated, and the
package's radii must match them over the whole range of K.
"""

import math

import pytest

mp = pytest.importorskip("mpmath")

from test_acceptance import REFERENCE_4DP, THM210_4DP
from test_radii import COR25_ROOTS
from test_solver import THM210_ROOT

from bohrmap import RadiusProblem, closed_form_radius

DIGITS = 40


def cor25_equation(n):
    # 2r/(1-r)^2 - 2nr/(1-r) - n^2 log(1-r) = 1
    return lambda r: (
        2 * r / (1 - r) ** 2 - 2 * n * r / (1 - r) - n**2 * mp.log(1 - r) - 1
    )


def thm210_equation(r):
    # 2r(1+r)/(3(1-r)^3) + r/(3(1-r)) = 1
    return 2 * r * (1 + r) / (3 * (1 - r) ** 3) + r / (3 * (1 - r)) - 1


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


def test_univalent_closed_form_is_correctly_rounded():
    # stated as 3 - sqrt(8); in binary64 that difference cancels ~10 ulp
    with mp.workdps(DIGITS):
        exact = 3 - mp.sqrt(8)
        got = closed_form_radius(RadiusProblem("thm11_univalent"))
        assert abs(got - exact) <= math.ulp(got) / 2
