#!/usr/bin/env python3
"""End-to-end study of the exponential test problem.

Solves the perturbed quartic with roots (2, 1, -1, -2) and a single decaying
perturbation r0 = eps * exp(-t), sweeping eps across the smallness boundary,
and prints the certified constants next to the observed solver behavior.
The envelope column is max (|z| + |z'| + |z''|) / (Phi * E_1) for the
delivered z, with E_1 built from the direct kernel that produced it.

Usage:
    python scripts/run_epsilon_study.py [--eps 0.001 0.01 0.1 1.0]
"""

import argparse
import sys

import numpy as np

from riccati4.errors import SolverError
from riccati4.hypotheses import contraction_constants, rho_bound, smallness_check
from riccati4.picard import default_grid, envelope_check, iterate_to_fixed_point
from riccati4.riccati import build_system, residual_profile
from riccati4.spectra import characteristic_data

A = (0.0, -5.0, 0.0, 4.0)


def study(eps_values):
    cd = characteristic_data(A)
    print(f"roots: {cd.lam}   min gap: {cd.min_gap}")
    grid = default_grid(cd, 0.0, 2048)
    header = (f"{'eps':>8} {'rho1':>10} {'rho*A*vs':>10} {'Phi':>9} "
              f"{'iters':>5} {'residual':>10} {'env ratio':>10}")
    print(header)
    print("-" * len(header))
    for eps in eps_values:
        r = (f"{eps}*exp(-t)", "0", "0", "0")
        sys1 = build_system(cd, r, 1)
        _, _, a1, vs1 = contraction_constants(cd, 1, 0.25)
        rho1 = rho_bound(cd, 1, r, 0.0)
        ok, phi = smallness_check(rho1, a1, vs1)
        row = f"{eps:8.4g} {rho1:10.3e} {rho1 * a1 * vs1:10.3e} "
        row += f"{phi:9.4f} " if phi else f"{'--':>9} "
        try:
            z, trace = iterate_to_fixed_point(sys1, grid)
            residual = float(np.max(np.abs(residual_profile(sys1, z))))
            row += f"{trace.n_iter:5d} {residual:10.2e} "
            if phi:
                _, ratio, _ = envelope_check(sys1, z, -1.0, phi,
                                             orientation=trace.orientation)
                row += f"{ratio:10.3e}"
            else:
                row += f"{'--':>10}"
        except SolverError as exc:
            row += f"  {type(exc).__name__}"
        print(row)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eps", type=float, nargs="*",
                        default=[1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0])
    args = parser.parse_args()
    study(args.eps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
