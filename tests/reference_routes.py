"""Reference routes that the tests check the library against.

Each function here restates a lemma of the paper, or a quantity the pipeline
computes another way, so that a test can compare the two.  None of them is
called by the pipeline:

* the Green-kernel certificates: the pointwise exponential bound, the
  one-sided limits of the second derivative at the diagonal and the cubic
  that annihilates the kernel off the diagonal;
* the decay functional L(E)(t) by adaptive quadrature (the pipeline
  integrates it on fixed panels in hypotheses.check_h2);
* the perturbation maps Lambda1 and Lambda2, written out from r1..r3;
* the lift identity R4 = y * R3 between the fourth-order residual at
  y = exp(integral(lam + z)) and the residual of the third-order form;
* the shifted-cubic residuals and the Phi_k recursion of the envelope
  constant, with NoLimit, the error it raises when the recursion diverges.
"""

from __future__ import annotations

import numpy as np

from riccati4.errors import SolverError
from riccati4.greens import GreenKernel
from riccati4.quadrature import adaptive_interval, adaptive_semi_infinite
from riccati4.riccati import RiccatiSystem, eval_F, log_derivative_ratios
from riccati4.spectra import CharacteristicData, shifted_cubic_coeffs


class NoLimit(SolverError):
    """Geometric envelope recursion has no limit (rho * A * varsigma >= 1)."""


# --- Green kernel --------------------------------------------------------------


def second_derivative_limits(kernel: GreenKernel, orientation="direct"):
    """One-sided limits of d2g/dt2 at t = s, (head side, tail side)."""
    m = kernel.modes(orientation)
    head = sum(mode.coef * mode.rate**2 for mode in m.head)
    tail = sum(mode.coef * mode.rate**2 for mode in m.tail)
    return head, tail


def cubic_coeffs(kernel: GreenKernel, orientation="direct"):
    """(b2, b1, b0) of the monic cubic annihilating t -> g(t, s) off the
    diagonal: the shifted cubic for direct, its reflection for adjoint."""
    roots = kernel.gamma if orientation == "direct" else tuple(-x for x in kernel.gamma)
    poly = np.poly(np.asarray(roots))
    return tuple(float(c) for c in poly[1:])


def bound_value(kernel: GreenKernel, t, s, d, orientation="adjoint"):
    """Pointwise value of the exponential bound at (t, s)."""
    dt = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
    bounds = kernel.kernel_bound(d, orientation)
    scale = abs(kernel.delta_gamma)
    out = np.zeros_like(np.asarray(dt, dtype=float))
    if "head" in bounds:
        coef, alpha = bounds["head"]
        out = np.where(dt >= 0.0, coef / scale * np.exp(-alpha * np.maximum(dt, 0.0)), out)
    if "tail" in bounds:
        coef, alpha = bounds["tail"]
        out = np.where(dt < 0.0, coef / scale * np.exp(-alpha * np.minimum(dt, 0.0)), out)
    return out if np.ndim(out) else float(out)


def L_functional(kernel: GreenKernel, E, t, t0, quad_tol=1e-12,
                 orientation="adjoint"):
    """L(E)(t) = integral over [t0, inf) of (|g| + |g_t| + |g_tt|) |E(s)| ds.

    E may be a FunctionExpr, any callable accepting ndarray s, or a sampled
    GridFunction (its value channel is interpolated and taken as zero beyond
    the grid).  The integral is split at the diagonal s = t and each part
    weighted by the kernel modes of its own side; the semi-infinite part is
    truncated once windows stop contributing (TailNotConvergent otherwise).
    """
    if hasattr(E, "channels_at"):
        grid_E = E
        t_hi = grid_E.t_max

        def E(s):  # noqa: F811 - sampled function wrapper
            s = np.asarray(s, dtype=float)
            inside = s <= t_hi
            return np.where(inside, grid_E.channels_at(np.minimum(s, t_hi))[0], 0.0)

    modes = kernel.modes(orientation)

    def weight(s, side):
        s = np.asarray(s, dtype=float)
        dt = t - s
        total = np.zeros_like(s)
        for d in (0, 1, 2):
            total += np.abs(modes.side_eval(dt, d, side))
        return total * np.abs(np.asarray(E(s), dtype=float))

    head_part = 0.0
    if modes.head and t > t0:
        head_part = adaptive_interval(lambda s: weight(s, "head"), t0, t, quad_tol)
    tail_part = 0.0
    if modes.tail:
        tail_part = adaptive_semi_infinite(lambda s: weight(s, "tail"), t, modes.slowest()[1],
                                           quad_tol)
    return head_part + tail_part


# --- Riccati system ----------------------------------------------------------------


def lambda1(sys: RiccatiSystem, t):
    """Lambda1 = (b(t), f(t), h(t)) multiplying (x1, x2, x3)."""
    lam = sys.lam
    r1, r2, r3 = (rj(t) for rj in sys.r[1:])
    return (-(3.0 * lam**2 * r3 + 2.0 * lam * r2 + r1), -(3.0 * lam * r3 + r2), -r3)


def lambda2(sys: RiccatiSystem, t):
    """Lambda2 = (p(t), f(t), h(t)) multiplying (x1 x2, x1^2, x1^3);
    p = 3h = -3 r3."""
    lam = sys.lam
    r2, r3 = (rj(t) for rj in sys.r[2:])
    return (-3.0 * r3, -(3.0 * lam * r3 + r2), -r3)


def fourth_order_residual_over_y(sys: RiccatiSystem, t, z0, z1, z2, z3):
    """Residual of the fourth-order equation divided by y, from the
    logarithmic-derivative identities (independent of the C/Lambda maps)."""
    a3, a2, a1, a0 = sys.a
    r0e, r1e, r2e, r3e = sys.r
    r1, r2, r3, r4 = log_derivative_ratios(sys.lam, z0, z1, z2, z3)
    return (
        r4
        + (a3 + r3e(t)) * r3
        + (a2 + r2e(t)) * r2
        + (a1 + r1e(t)) * r1
        + (a0 + r0e(t))
    )


def lift_residual_equivalence(sys: RiccatiSystem, z_derivs, t, t0=None):
    """Master consistency check between the two equation levels.

    z_derivs is a callable t -> (z, z', z'', z''') for a smooth test
    function, vectorized over t.  Returns (R4, R3 * y) where R4 is the
    fourth-order residual at y = exp(integral from t0 of (lam + z)) and R3
    the third-order residual; the two must agree to roundoff when every
    coefficient map is correct.
    """
    if t0 is None:
        t0 = t - 1.0

    z0, z1, z2, z3 = z_derivs(t)
    y_log = adaptive_interval(lambda s: sys.lam + z_derivs(s)[0], t0, t, 1e-13)
    y = float(np.exp(y_log))

    r4_over_y = fourth_order_residual_over_y(sys, t, z0, z1, z2, z3)
    b2, b1, b0 = sys.b
    r3_residual = (
        z3 + b2 * z2 + b1 * z1 + b0 * z0
        - sys.omega(t) - eval_F(sys, t, z0, z1, z2)
    )
    return float(r4_over_y * y), float(r3_residual * y)


# --- spectra and the envelope constant ---------------------------------------------


def shifted_cubic_residuals(cd: CharacteristicData, i: int):
    """Value of the shifted cubic at each gamma; all should vanish."""
    b2, b1, b0 = shifted_cubic_coeffs(cd, i)
    return tuple(((g + b2) * g + b1) * g + b0 for g in cd.gamma_for(i))


def phi_sequence(a_const, rho, varsigma, n):
    """Phi_1 = A, Phi_k = A (1 + Phi_{k-1} rho varsigma); returns
    (sequence, limit A / (1 - rho A varsigma)).  NoLimit when the geometric
    ratio rho A varsigma reaches 1."""
    ratio = rho * a_const * varsigma
    seq = []
    phi = a_const
    for _ in range(n):
        seq.append(phi)
        phi = a_const * (1.0 + phi * rho * varsigma)
    if ratio >= 1.0:
        raise NoLimit(f"rho * A * varsigma = {ratio:.6g} >= 1")
    return seq, a_const / (1.0 - ratio)
