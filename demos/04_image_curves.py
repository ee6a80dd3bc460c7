"""Write the figure data: image curves near unit tangency, majorant curves.

Produces CSV files in --out-dir:
  curve_f0.csv, curve_K.csv   ``bohrmap image-curve`` of |z| = r under the
                              two sharp maps of selfcheck's IMAGE_REACH_PAIRS,
                              at the radius where each touches the unit circle
  majorant_cor25.csv          the monomial root function for n = 1..4 on a
                              dense r grid; its zero crossings are the
                              table radii
"""

import argparse
import os

import numpy as np

from bohrmap import RadiusProblem, extremal_pairing, majorant_value, solve_radius
from bohrmap.cli import main as bohrmap_cli
from bohrmap.selfcheck import IMAGE_REACH_PAIRS


def write_majorants(path, max_n):
    r = np.linspace(0.0, 0.6, 601)[1:]
    cols = {}
    for n in range(1, max_n + 1):
        cols[n] = majorant_value(RadiusProblem("cor25_monomial", n=n), r)
    with open(path, "w") as fh:
        fh.write("r," + ",".join(f"phi_n{n}" for n in cols) + "\n")
        for i, ri in enumerate(r):
            row = ",".join(f"{cols[n][i]:.12g}" for n in cols)
            fh.write(f"{ri:.12g},{row}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="demo_output")
    ap.add_argument("--samples", type=int, default=4096)
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    for name, variant in IMAGE_REACH_PAIRS:
        spec, p = extremal_pairing(name, variant)
        r0, alias = solve_radius(p).root, spec.record.alias
        path = os.path.join(args.out_dir, f"curve_{alias}.csv")
        bohrmap_cli(["image-curve", "--map", name, "--r", repr(r0),
                     "--samples", str(args.samples), "--out", path])
        with open(path) as fh:
            mx = float(fh.readline().rsplit("max_mod=", 1)[1])
        print(f"{alias:<2} image at its radius {r0:.12f}: max modulus {mx:.12f}")
    write_majorants(os.path.join(args.out_dir, "majorant_cor25.csv"), 4)
    print()
    print("Both curves kiss the unit circle from inside: max modulus equals")
    print("1 up to solver precision because the coefficient moduli of each")
    print("map sum to exactly the bound at its radius (the max is attained")
    print("on the positive real axis, where moduli add without cancellation).")
    print()
    print(f"Wrote curve_f0.csv, curve_K.csv, majorant_cor25.csv to {args.out_dir}/")


if __name__ == "__main__":
    main()
