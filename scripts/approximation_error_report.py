"""Accuracy of the centrifugal 1/r^2 expansion across the bound region.

Compares the three-term rational expansion used by the effective
coefficients with the exponential (Pekeris-style) comparator, printing
the relative error of each at selected radii and the maximum over a
window around the minimum.  The rational form is exact at re by
construction and stays ahead of the exponential one well past the outer
turning points of the tabulated levels.

Usage: python scripts/approximation_error_report.py [--points N]
"""

import argparse

from rovib.database import load_database
from rovib.potentials import derive, pole_radius
from rovib.rotational import (
    badawi_coefficients,
    centrifugal_approx_error,
    default_r_grid,
    greene_aldrich_error,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=400)
    args = parser.parse_args()

    db = load_database()
    print(f"{'molecule':>9} {'radius':>12} {'rational':>12} {'exponential':>12}")
    for name in db.names:
        params = db.get(name)
        d = derive(params)
        coeffs = badawi_coefficients(d.u, params.eta)
        pole = pole_radius(d.b, d.q)

        for factor in (1.0, 1.1, 1.3, 2.0):
            r = factor * params.re
            rational = centrifugal_approx_error(coeffs, d.q, d.u, d.b, [r])[0]
            exponential = greene_aldrich_error(d.b, [r])[0]
            print(f"{name:>9} {factor:>10.1f}re {rational:12.3e} "
                  f"{exponential:12.3e}")

        window = default_r_grid(params.re, args.points, pole=pole)
        near = [r for r in window if 0.9 * params.re < r < 1.1 * params.re]
        rational = max(map(abs, centrifugal_approx_error(coeffs, d.q, d.u, d.b, near)))
        exponential = max(map(abs, greene_aldrich_error(d.b, near)))
        print(f"{name:>9} {'0.9-1.1re':>12} {rational:12.3e} "
              f"{exponential:12.3e}  (window max)")


if __name__ == "__main__":
    main()
