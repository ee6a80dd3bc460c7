"""Build the extremal maps two ways and check they agree.

The catalog stores coefficient models directly; the dilatation module
rebuilds the co-analytic part from h and w via the coupling
g'(z) = w(z) h'(z).  Both routes must land on the same map.
"""

import argparse

import numpy as np

from bohrmap import (
    MAP_TABLE,
    MobiusDilatation,
    MonomialDilatation,
    NamedMap,
    circle_grid,
    closed_form_eval,
    dilatation_residual,
    eval_harmonic,
    g_from_mobius,
    g_from_monomial,
    make_map,
)


def catalog_tour(order):
    print("Catalog maps, series vs closed form at |z| = 0.3:")
    z = 0.3 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 32))
    for record in MAP_TABLE:
        name = record.name
        k = 0.5 if record.parametric else None
        spec = NamedMap(name, k=k, order=order)
        f = make_map(spec)
        gap = np.max(np.abs(eval_harmonic(f, z) - closed_form_eval(spec, z)))
        tag = f"(k = {k})" if k is not None else ""
        print(f"  {name:<22} max gap {gap:.2e}  {tag}")
    print()


def monomial_reconstruction(order):
    print("f0 reconstructed from the analytic Koebe part with w(z) = z:")
    h = make_map(NamedMap("koebe_analytic", order=order)).h
    built = g_from_monomial(h, MonomialDilatation(k=1.0, n=1))
    f0 = make_map(NamedMap("f0_sharp", order=order))
    gap = np.max(np.abs(built.g.coeffs - f0.g.coeffs))
    print(f"  coefficient gap vs catalog: {gap:.2e}")
    m = np.arange(2, 7)
    print(f"  b_m for m = 2..6: {[f'{built.g.coeffs[i].real:.6f}' for i in m]}")
    print("  (the closed form is (m-1)^2/m)")
    print()


def mobius_reconstruction(order):
    print("Mobius dilatation w(z) = (a+z)/(1+az), recurrence vs residual:")
    h = make_map(NamedMap("half_plane_analytic", order=order)).h
    pts = circle_grid(0.5, 64)
    for a in (0.3, -0.5):
        for variant in ("plus", "minus"):
            f = g_from_mobius(h, MobiusDilatation(a, variant))
            res = dilatation_residual(f, MobiusDilatation(a, variant), pts)
            print(f"  a = {a:+.1f} {variant:<6} residual {res:.2e}")
    print()
    print("The residual is max |g' - w h'| over the circle; anything at")
    print("roundoff scale confirms the recurrence implements the coupling.")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=400)
    args = ap.parse_args()

    catalog_tour(args.order)
    monomial_reconstruction(args.order)
    mobius_reconstruction(args.order)


if __name__ == "__main__":
    main()
