#!/usr/bin/env python3
"""End-to-end study of the exponential test problem.

Solves the perturbed quartic with roots (2, 1, -1, -2) and a single decaying
perturbation r0 = eps * exp(-t), sweeping eps across the smallness boundary,
and prints the certified constants next to the observed solver behavior.
Each row is one `run_report(spec, roots=(1,), mode="solve")` call on 2048
nodes.  The envelope column is max (|z| + |z'| + |z''|) / (Phi * E_1) for
the delivered z, with E_1 built from the direct kernel that produced it; a
root that ends in an error prints the error's class name.

Usage:
    python scripts/run_epsilon_study.py [--eps 0.001 0.01 0.1 1.0]
"""

import argparse
import sys

from riccati4.problem import ProblemSpec
from riccati4.report import run_report


def _column(value, fmt, width):
    return f"{'--':>{width}}" if value is None else format(value, fmt)


def study(eps_values):
    header = (f"{'eps':>8} {'rho1':>10} {'rho*A*vs':>10} {'Phi':>9} "
              f"{'iters':>5} {'residual':>10} {'env ratio':>10}")
    for n, eps in enumerate(eps_values):
        spec = ProblemSpec(a2=-5.0, a0=4.0, r0=f"{eps}*exp(-t)", nodes=2048)
        report, _ = run_report(spec, roots=(1,), mode="solve")
        if n == 0:
            char = report["characteristic"]
            print(f"roots: {tuple(char['roots'])}   min gap: {char['min_gap']}")
            print(header)
            print("-" * len(header))
        root = report["roots"]["1"]
        row = f"{eps:8.4g} "
        const = root["constants"]
        if const is not None:
            product = const["rho"] * const["A"] * const["varsigma"]
            row += f"{const['rho']:10.3e} {product:10.3e} "
            row += _column(const["Phi"], "9.4f", 9) + " "
        if root["status"] == "error":
            row += f"  {root['error'].split(':')[0]}"
        else:
            solve = root["solve"]
            row += f"{solve['n_iter']:5d} {solve['riccati_residual_max']:10.2e} "
            row += _column(root["certificates"]["envelope_ratio_max"], "10.3e", 10)
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
