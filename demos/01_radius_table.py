"""Radius tour: every variant, its radius, and where the number comes from.

Closed-form variants report algebra; root-defined variants report a
bisection certificate whose bracket pins the root to 1e-13.
"""

import argparse

from bohrmap import RadiusProblem, closed_form_radius, min_rule_radius, solve_radius


def monomial_table(max_n):
    print("Monomial dilatation w(z) = z^n at full amplitude (k = 1):")
    print(f"  {'n':>3}  {'radius':<20}  4dp")
    for n in range(1, max_n + 1):
        cert = solve_radius(RadiusProblem("cor25_monomial", n=n))
        print(f"  {n:>3}  {cert.root:<20.15f}  {cert.root:.4f}")
    print()
    print("The radius shrinks as n grows: a higher-order zero of the")
    print("dilatation pushes more coefficient mass into the co-analytic")
    print("part, so the sum reaches the bound sooner.")
    print()


def closed_forms():
    rows = [
        ("thm11_univalent", {}, "univalent, bound d"),
        ("thm11_convex", {}, "convex, bound d"),
        ("thm12_quasi", {"K": 3.0}, "K-quasiconformal, bound d"),
        ("thm12_quasi_convex", {"K": 3.0}, "convex K-quasiconformal"),
        ("thm22_bohr", {}, "subordination family"),
        ("thm23_quasi", {"K": 3.0}, "section-two quasiconformal"),
        ("thm23_quasi_convex", {"K": 3.0}, "convex variant"),
        ("thm29_convex_direction", {}, "convex in one direction"),
        ("thm211_convex", {}, "fully convex"),
    ]
    print("Algebraic radii (K = 3 where a K enters):")
    for variant, kwargs, label in rows:
        p = RadiusProblem(variant, **kwargs)
        r = closed_form_radius(p)
        print(f"  {variant:<26} {r:.15f}   {label}")
    print()


def min_rule():
    print("Subordination variants clip at 1/3, whichever is smaller:")
    for K in (1.0, 2.0, 5.0):
        p = RadiusProblem("thm23_sub", K=K)
        base = closed_form_radius(RadiusProblem("thm23_quasi", K=K))
        print(
            f"  K = {K:<4}  base {base:.12f}  ->  min-rule "
            f"{min_rule_radius(p):.12f}"
        )
    print()
    print("K = 2 is the crossover: the base radius equals 1/3 there exactly.")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=8)
    args = ap.parse_args()

    monomial_table(args.max_n)
    closed_forms()
    min_rule()


if __name__ == "__main__":
    main()
