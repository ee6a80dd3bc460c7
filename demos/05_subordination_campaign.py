"""Coefficient domination under subordination, stress-tested.

If f1 = f o psi for a Schwarz function psi, the coefficient sums of f1
stay below those of f for r <= 1/3.  We hammer this with seeded random
Blaschke products composed against the two classical base maps and report
the worst margin seen.
"""

import argparse
import cmath
import json

from bohrmap import (
    NamedMap,
    check_domination,
    domination_campaign,
    make_map,
    monomial_schwarz,
    random_schwarz,
)


def single_examples():
    koebe = make_map(NamedMap("koebe_analytic", order=200)).h
    print("Hand-picked compositions against the Koebe map:")
    cases = [
        ("identity (margin must be exactly 0)", monomial_schwarz(1.0, 1)),
        ("rotation by e^{i}", monomial_schwarz(cmath.exp(1j), 1)),
        ("random Blaschke, seed 11, degree 3", random_schwarz(11, 3)),
    ]
    for label, psi in cases:
        margin = check_domination(koebe, psi)
        print(f"  {label:<42} worst margin {margin:+.6e}")
    print()


def campaign(cases, order, dump):
    report = domination_campaign(seeds=range(cases), order=order)
    print(
        f"Campaign: {report['count']} compositions at order {order}, "
        f"worst margin {report['worst_margin']:+.3e}"
    )
    tightest = sorted(report["cases"], key=lambda c: c["margin"])[:5]
    print("Five tightest cases:")
    for c in tightest:
        print(f"  seed {c['seed']:>3}  {c['map']:<22} margin {c['margin']:+.3e}"
              f"  {c['psi']}")
    if dump:
        with open(dump, "w") as fh:
            json.dump(report, fh, indent=1)
        print(f"full report -> {dump}")
    print()
    print("A nonnegative worst margin (up to 1e-9 roundoff slack) means no")
    print("seeded composition ever pushed its coefficient sum above the")
    print("base map's sum on (0, 1/3].")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cases", type=int, default=200)
    ap.add_argument("--order", type=int, default=200)
    ap.add_argument("--dump", default=None, help="write the JSON report here")
    args = ap.parse_args()

    single_examples()
    campaign(args.cases, args.order, args.dump)


if __name__ == "__main__":
    main()
