"""Fundamental system built from the Riccati fixed points.

Each solution is y_i = exp(integral from t0 of (lam_i + z_i)); only its
logarithm is stored so large exponents never overflow.  The ratios y^(l)/y
come from the logarithmic-derivative identities, evaluated once per solution
on the whole node array (``FundamentalSolution.ratios``); the ratio limits,
the oracle's initial state and the Wronskian all index those arrays.  The
Wronskian is evaluated on the ratio-normalized matrix [y^(l)/y] whose limit
is the Vandermonde determinant of the roots, so at every node it is the det
of the ratios the report prints, and any number of times cost one batched
det.  The asymptotic integral representation is checked against the direct
product construction.

Neither integral samples anything here: the Picard operator's pass that
applies z with integrals (the fixed-point certificate, in the pipeline)
forms the plain panel integrals of lam + z and of -Omega + F(z, z', z'')
next to T z (``IntegralOperator.panel_integrals``), and synthesis only sums
them up to each node.  z is read on the Gauss-Legendre points in that pass
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction, hermite_eval
from .picard import IntegralOperator
from .quadrature import node_integrals
from .riccati import log_derivative_ratios

RATIO_TOL = 1e-4


@dataclass(frozen=True)
class FundamentalSolution:
    i: int
    lam: float
    z: GridFunction
    log_y: np.ndarray          # integral of (lam + z) at the nodes
    pi_i: float                # product of (lam_k - lam_i), k != i
    correction: np.ndarray     # (1/pi_i) integral of (p(lam_i, s) + F) at the nodes
    ratios: tuple              # (y'/y, y''/y, y'''/y, y''''/y) at the nodes

    @property
    def nodes(self):
        return self.z.nodes

    def log_y_at(self, ts):
        return hermite_eval(self.nodes, self.log_y, self.lam + self.z.value, ts)

    def y_at(self, ts):
        return np.exp(self.log_y_at(ts))

    def state_at(self, k):
        """(y, y', y'', y''') / y at node k: the state of the fourth-order
        equation for this solution scaled to y = 1 there (at t0 that is the
        normalization)."""
        r1, r2, r3, _ = self.ratios
        return np.array([1.0, r1[k], r2[k], r3[k]])


def fundamental_solution(op: IntegralOperator, z: GridFunction, cd) -> FundamentalSolution:
    """Assemble y_i from a converged z on the grid of op, the operator of its
    Riccati system: log y and the asymptotic correction sum the panel
    integrals of ``op.panel_integrals(z)``, formed by the certificate's
    apply of z (or by one more apply, for a z the certificate did not
    take)."""
    sys = op.sys
    log_sums, correction_sums = op.panel_integrals(z)
    pi_i = 1.0
    for k in range(4):
        if k + 1 != sys.i:
            pi_i *= cd.lam[k] - sys.lam
    return FundamentalSolution(i=sys.i, lam=sys.lam, z=z, log_y=node_integrals(log_sums),
                               pi_i=pi_i, correction=node_integrals(correction_sums) / pi_i,
                               ratios=log_derivative_ratios(sys.lam, z.value, z.d1, z.d2,
                                                            z.d3))


def derivative_ratio_limits(fs: FundamentalSolution):
    """|y^(l)/y - lam^l| for l = 1..4 at the nodes, from fs.ratios.

    Returns (errors array shape (4, nodes), verdict string): PASS when all
    four errors at the final node are below RATIO_TOL."""
    errors = np.vstack([np.abs(fs.ratios[l] - fs.lam ** (l + 1)) for l in range(4)])
    verdict = "PASS" if np.all(errors[:, -1] <= RATIO_TOL) else "FAIL"
    return errors, verdict


def wronskian_normalized(fss, t):
    """det of the 4x4 matrix with rows (1, y'/y, y''/y, y'''/y) and one column
    per solution, at the node nearest t (the lower one on a tie): a float for
    one time, an array of dets for an array of times.

    This is W / (y_1 y_2 y_3 y_4); with z = 0 it is the Vandermonde
    determinant of the roots, and it tends to that value in general.  The
    entries are `FundamentalSolution.ratios` at the nodes read, the values
    ratios_root{i}.csv prints.  The four solutions must share one grid."""
    if len(fss) != 4:
        raise ValueError("need all four fundamental solutions")
    grid = fss[0].z.grid
    if any(fs.z.grid is not grid for fs in fss):
        raise ValueError("the solutions live on different panel grids")
    nodes, t = grid.nodes, np.asarray(t, dtype=float)
    ts = t.reshape(-1)
    k = np.clip(np.searchsorted(nodes, ts), 1, nodes.size - 1)
    k -= ts - nodes[k - 1] <= nodes[k] - ts
    columns = [np.stack([np.ones(k.size), *(r[k] for r in fs.ratios[:3])], axis=-1)
               for fs in fss]
    w = np.linalg.det(np.stack(columns, axis=-1)).reshape(t.shape)
    return float(w) if w.ndim == 0 else w


def vandermonde_target(cd):
    """prod over ordered pairs of (lam_j - lam_i), the Wronskian limit."""
    out = 1.0
    for i in range(4):
        for j in range(i + 1, 4):
            out *= cd.lam[j] - cd.lam[i]
    return out


def asymptotic_integral_formula(fs: FundamentalSolution):
    """Predicted log y from the asymptotic representation
    lam (t - t0) + (1/pi_i) * integral of [p(lam_i, s) + F(s, z, z', z'')],
    with p(lam_i, s) = -Omega(s).

    Returns (predicted log_y at the nodes, relative gap profile against the
    direct product construction)."""
    predicted = fs.lam * (fs.nodes - fs.nodes[0]) + fs.correction
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
