"""Fundamental system built from the Riccati fixed points.

Each solution is y_i = exp(integral from t0 of (lam_i + z_i)); only its
logarithm is stored so large exponents never overflow.  Derivatives come from
the logarithmic-derivative identities, the Wronskian is evaluated on the
ratio-normalized matrix [y^(l)/y] whose limit is the Vandermonde determinant
of the roots, and the asymptotic integral representation is checked against
the direct product construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, hermite_eval
from .quadrature import cumulative_integral
from .riccati import F_nested, RiccatiSystem, log_derivative_ratios, sample_coefficients


@dataclass(frozen=True)
class FundamentalSolution:
    i: int
    lam: float
    z: GridFunction
    log_y: np.ndarray          # integral of (lam + z) at the nodes
    pi_i: float                # product of (lam_k - lam_i), k != i

    @property
    def nodes(self):
        return self.z.nodes

    def log_y_at(self, ts):
        return hermite_eval(self.nodes, self.log_y, self.lam + self.z.value, ts)

    def y_at(self, ts):
        return np.exp(self.log_y_at(ts))

    def ratios(self):
        """(y'/y, y''/y, y'''/y, y''''/y) at the nodes."""
        z = self.z
        return log_derivative_ratios(self.lam, z.value, z.d1, z.d2, z.d3)

    def state_at(self, k):
        """(y, y', y'', y''') / y at node k: the state of the fourth-order
        equation for this solution scaled to y = 1 there (at t0 that is the
        normalization)."""
        r1, r2, r3, _ = self.ratios()
        return np.array([1.0, r1[k], r2[k], r3[k]])


def fundamental_solution(sys: RiccatiSystem, z: GridFunction, cd) -> FundamentalSolution:
    """Assemble y_i from a converged z on its grid."""
    z_gl, _, _ = z.channels_on()
    log_y = cumulative_integral(z.grid, sys.lam + z_gl)
    pi_i = 1.0
    for k in range(4):
        if k + 1 != sys.i:
            pi_i *= cd.lam[k] - sys.lam
    return FundamentalSolution(i=sys.i, lam=sys.lam, z=z, log_y=log_y, pi_i=pi_i)


def derivative_ratio_limits(fs: FundamentalSolution, ratio_tol=1e-4):
    """|y^(l)/y - lam^l| for l = 1..4 at the nodes.

    Returns (errors array shape (4, nodes), verdict string): PASS when all
    four errors at the final node are below ratio_tol."""
    ratios = fs.ratios()
    errors = np.vstack([
        np.abs(np.asarray(ratios[l]) - fs.lam ** (l + 1)) for l in range(4)
    ])
    verdict = "PASS" if np.all(errors[:, -1] <= ratio_tol) else "FAIL"
    return errors, verdict


def wronskian_normalized(fss, t):
    """det of the 4x4 matrix with rows (1, y'/y, y''/y, y'''/y) per solution.

    This is W / (y_1 y_2 y_3 y_4); with z = 0 it is the Vandermonde
    determinant of the roots, and it tends to that value in general."""
    if len(fss) != 4:
        raise ValueError("need all four fundamental solutions")
    cols = []
    for fs in fss:
        idx = int(np.argmin(np.abs(fs.nodes - t)))
        z0, z1, z2, z3 = fs.z.value[idx], fs.z.d1[idx], fs.z.d2[idx], fs.z.d3[idx]
        r1, r2, r3, _ = log_derivative_ratios(fs.lam, z0, z1, z2, z3)
        cols.append([1.0, float(r1), float(r2), float(r3)])
    return float(np.linalg.det(np.array(cols).T))


def vandermonde_target(cd):
    """prod over ordered pairs of (lam_j - lam_i), the Wronskian limit."""
    out = 1.0
    for i in range(4):
        for j in range(i + 1, 4):
            out *= cd.lam[j] - cd.lam[i]
    return out


def asymptotic_integral_formula(fs: FundamentalSolution, sys: RiccatiSystem):
    """Predicted log y from the asymptotic representation
    lam (t - t0) + (1/pi_i) * integral of [p(lam_i, s) + F(s, z, z', z'')].

    Returns (predicted log_y at the nodes, relative gap profile against the
    direct product construction)."""
    k = sample_coefficients(sys, fs.z.grid.gl_x)
    z0, z1, z2 = fs.z.channels_on()
    # p(lam_i, s) = -Omega(s)
    integrand = -k.omega + F_nested(sys, k, z0, z1, z2)
    correction = cumulative_integral(fs.z.grid, integrand) / fs.pi_i
    predicted = fs.lam * (fs.nodes - fs.nodes[0]) + correction
    gap = np.abs(np.expm1(predicted - fs.log_y))
    return predicted, gap


def double_integral_identity_residual(a, decay, t, t0=0.0):
    """Self-test of the iterated-integral identity used by the asymptotic
    formula: for H(s) = exp(-decay s) with decay > a > 0,

      int_t0^t exp(-a tau) int_tau^inf exp(a s) H(s) ds dtau
        = -(1/a) [G(t) - G(t0)] - (1/a) int_t0^t H,   G(t) = int_t^inf
          exp(-a (t - s)) H(s) ds.

    Returns the relative mismatch from numerically integrating the left side
    against the closed-form right side.
    """
    from .quadrature import adaptive_interval

    if not (decay > a > 0.0):
        raise ValueError("need decay > a > 0 for the tail to converge")

    def inner(tau):
        tau = np.asarray(tau, dtype=float)
        # int_tau^inf e^{a s} e^{-decay s} ds = e^{(a-decay) tau} / (decay - a)
        return np.exp(-a * tau) * np.exp((a - decay) * tau) / (decay - a)

    lhs = adaptive_interval(inner, t0, t, 1e-14)

    def g_func(x):
        return math.exp(-decay * x) / (decay - a)

    int_h = (math.exp(-decay * t0) - math.exp(-decay * t)) / decay
    rhs = -(g_func(t) - g_func(t0)) / a - int_h / a
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale
