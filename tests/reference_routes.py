"""Reference routes that the tests check the library against.

Each function here restates a lemma of the paper, or a quantity the pipeline
computes another way, so that a test can compare the two.  None of them is
called by the pipeline:

* the Green kernel evaluated at (t, s) and one side of it at t - s, and its
  certificates: the pointwise exponential bound, the one-sided limits of the
  second derivative at the diagonal and the cubic that annihilates the
  kernel off the diagonal;
* the decay functional L(E)(t) by adaptive quadrature (the pipeline
  integrates it on fixed panels in hypotheses.check_h2);
* the forcing Omega and the perturbation maps Lambda1 and Lambda2, written
  out from r0..r3;
* the class transform of one forcing alone: head_transform plus a seeded
  tail_transform (hypotheses.rho_bound transforms the stack of every
  perturbation in one call per side, with one tail seed per row);
* T z unblocked: Omega + F on every Gauss-Legendre point at once, then one
  head_transform or tail_transform per kernel mode (IntegralOperator.apply
  forms the same panel sums one block of panels at a time);
* the integrals of synthesis on every Gauss-Legendre point at once: log y
  and the asymptotic correction (the pipeline sums the panel integrals that
  IntegralOperator.apply forms one block of panels at a time);
* the lift identity R4 = y * R3 between the fourth-order residual at
  y = exp(integral(lam + z)) and the residual of the third-order form;
* the shifted-cubic residuals and the Phi_k recursion of the envelope
  constant, with NoLimit, the error it raises when the recursion diverges;
* a direct run by solve_ivp's DOP853, the explicit Runge-Kutta pair the
  oracle integrated with before it moved to LSODA.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from riccati4.errors import SolverError, StepUnderflow
from riccati4.greens import GreenKernel, KernelModes
from riccati4.quadrature import (adaptive_interval, adaptive_semi_infinite, cumulative_integral,
                                 exponential_tail_seed, head_transform, tail_transform)
from riccati4.riccati import (F_nested, RiccatiSystem, eval_F, log_derivative_ratios,
                              sample_coefficients)
from riccati4.spectra import CharacteristicData, shifted_cubic_coeffs


class NoLimit(SolverError):
    """Geometric envelope recursion has no limit (rho * A * varsigma >= 1)."""


# --- Green kernel --------------------------------------------------------------


def kernel_eval(kernel: GreenKernel, t, s, d=0, orientation="direct"):
    """d-th t-derivative of the kernel at (t, s) (arrays ok); d in 0..3, the
    head side wins ties.

    d = 3 is only meaningful off the diagonal (distribution part excluded).
    """
    if d not in (0, 1, 2, 3):
        raise ValueError("derivative order must be 0..3")
    modes = kernel.modes(orientation)
    dt = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
    out = np.zeros_like(dt)
    head_mask = dt >= 0.0
    for m in modes.head:
        out += np.where(head_mask, m.coef * m.rate**d * np.exp(m.rate * np.where(head_mask, dt, 0.0)), 0.0)
    tail_mask = ~head_mask
    for m in modes.tail:
        out += np.where(tail_mask, m.coef * m.rate**d * np.exp(m.rate * np.where(tail_mask, dt, 0.0)), 0.0)
    return out if out.ndim else float(out)


def side_eval(modes: KernelModes, dt, d, side):
    """d-th t-derivative of one side's modes at t - s = dt (no diagonal
    tie-break); side in {head, tail}."""
    dt = np.asarray(dt, dtype=float)
    out = np.zeros_like(dt)
    for m in modes.head if side == "head" else modes.tail:
        out += m.coef * m.rate**d * np.exp(m.rate * dt)
    return out if out.ndim else float(out)


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
            total += np.abs(side_eval(modes, dt, d, side))
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


def omega(sys: RiccatiSystem, t):
    """Omega(t) = -(lam^3 r3 + lam^2 r2 + lam r1 + r0)."""
    lam = sys.lam
    r0, r1, r2, r3 = (rj(t) for rj in sys.r)
    return -(lam**3 * r3 + lam**2 * r2 + lam * r1 + r0)


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


def operator_forcing(op, z):
    """The forcing of T z on op's grid as (samples at the Gauss-Legendre
    points, samples at the nodes, past): Omega, plus F(z, z', z'') unless z
    is None (the zero function), with z interpolated by channels_on.  past
    is the callable whose integral beyond the grid seeds the tail: Omega, or
    None when Omega vanishes on the grid."""
    grid = op.grid
    k_gl = sample_coefficients(op.sys, grid.gl_x)
    k_nodes = sample_coefficients(op.sys, grid.nodes)
    f_gl = np.broadcast_to(k_gl.omega, grid.gl_x.shape)
    f_nodes = np.broadcast_to(k_nodes.omega, grid.nodes.shape)
    past = op.omega if np.any(f_gl) else None
    if z is not None:
        f_gl = f_gl + F_nested(op.sys, k_gl, *z.channels_on())
        f_nodes = f_nodes + F_nested(op.sys, k_nodes, z.value, z.d1, z.d2)
    return f_gl, f_nodes, past


def kernel_integral(op, f_gl, f_nodes, past):
    """The (value, d1, d2, d3) channels of the kernel integral of a forcing
    with samples f_gl and f_nodes on op's grid: one head_transform or
    tail_transform over the whole grid per kernel mode of op, each tail
    seeded by the integral of the callable past beyond the grid (0 when
    past is None)."""
    grid, modes = op.grid, op.modes
    ch = np.zeros((4, grid.nodes.size))
    for m in modes.head:
        h = head_transform(grid, f_gl, m.rate)
        for d in range(4):
            ch[d] += m.coef * m.rate**d * h
    for m in modes.tail:
        seed = 0.0 if past is None else exponential_tail_seed(past, grid, m.rate, op.quad_tol)
        k = tail_transform(grid, f_gl, m.rate, seed)
        for d in range(4):
            ch[d] += m.coef * m.rate**d * k
    ch[3] += modes.jump * f_nodes
    return ch


def two_sided_transform(grid, f, f_gl, head_rate, tail_rate, quad_tol):
    """head_transform at head_rate plus tail_transform at tail_rate, the tail
    seeded past the grid by exponential_tail_seed of the callable f (whose
    GL samples are f_gl).  A rate of None drops its side."""
    out = np.zeros(grid.nodes.size)
    if head_rate is not None:
        out += head_transform(grid, f_gl, head_rate)
    if tail_rate is not None:
        seed = exponential_tail_seed(f, grid, tail_rate, quad_tol)
        out += tail_transform(grid, f_gl, tail_rate, seed)
    return out


def synthesis_integrals(sys: RiccatiSystem, z):
    """(log y, pi_i times the asymptotic correction) at the nodes of z's
    grid: the integrals from t0 of lam + z and of -Omega + F(z, z', z''),
    with the coefficients and z sampled on all Gauss-Legendre points at
    once."""
    grid = z.grid
    k = sample_coefficients(sys, grid.gl_x)
    z0, z1, z2 = z.channels_on()
    log_y = cumulative_integral(grid, sys.lam + z0)
    correction = cumulative_integral(grid, -k.omega + F_nested(sys, k, z0, z1, z2))
    return log_y, correction


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
        - omega(sys, t) - eval_F(sys, t, z0, z1, z2)
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


# --- direct integration ----------------------------------------------------------


def dop853_states(rhs, t_span, y0, t_eval, tol):
    """States at t_eval, shape (n_state, len(t_eval)), of a DOP853 run of rhs
    over t_span at rtol tol and atol tol * 1e-2 (the tolerances that
    oracle._solve hands LSODA)."""
    sol = solve_ivp(rhs, t_span, np.asarray(y0, dtype=float), method="DOP853",
                    rtol=tol, atol=tol * 1e-2, t_eval=t_eval)
    if not sol.success:
        raise StepUnderflow(f"direct integration failed: {sol.message}")
    return sol.y
