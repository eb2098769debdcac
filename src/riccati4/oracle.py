"""Independent ground truth: adaptive direct integration.

The fourth-order equation and the third-order Riccati equation are both
integrated with an embedded high-order Runge-Kutta pair (DOP853) and compared
against the formula-based constructions.  Forward integration is reliable for
the dominant mode only; subdominant modes are validated through logarithmic
derivatives on short spans and, for the bottom root, a backward Riccati run.

cross_validate integrates at ORACLE_TOL over SPAN_DOMINANT time units for
the dominant root and at most SPAN_SUBDOMINANT for the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NonFinite, StepUnderflow
from .riccati import F_nested, RiccatiSystem, sample_coefficients
from .synthesis import FundamentalSolution

ORACLE_TOL = 1e-10
SPAN_DOMINANT = 5.0
SPAN_SUBDOMINANT = 3.0


@dataclass(frozen=True)
class Trajectory:
    states: np.ndarray  # (n_state, len(t_eval))


def _solve(rhs, t_span, y0, t_eval, tol):
    sol = solve_ivp(
        rhs, t_span, np.asarray(y0, dtype=float),
        method="DOP853", rtol=tol, atol=tol * 1e-2, t_eval=t_eval,
    )
    if not sol.success:
        raise StepUnderflow(f"direct integration failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        raise NonFinite("direct integration produced non-finite states")
    return sol


def linear4_rhs(a, r_exprs):
    """State (y, y', y'', y''') for the perturbed fourth-order equation."""
    a3, a2, a1, a0 = a
    r0, r1, r2, r3 = r_exprs

    def rhs(t, y):
        y4 = -(
            (a3 + r3(t)) * y[3]
            + (a2 + r2(t)) * y[2]
            + (a1 + r1(t)) * y[1]
            + (a0 + r0(t)) * y[0]
        )
        return (y[1], y[2], y[3], y4)

    return rhs


def integrate_linear4(a, r_exprs, y0, t_span, t_eval, tol=ORACLE_TOL) -> Trajectory:
    sol = _solve(linear4_rhs(a, r_exprs), t_span, y0, t_eval, tol)
    return Trajectory(states=sol.y)


def riccati_rhs(sys: RiccatiSystem):
    b2, b1, b0 = sys.b

    def rhs(t, x):
        k = sample_coefficients(sys, t)
        x3 = (
            k.omega + F_nested(sys, k, x[0], x[1], x[2])
            - b2 * x[2] - b1 * x[1] - b0 * x[0]
        )
        return (x[1], x[2], x3)

    return rhs


def integrate_riccati(sys: RiccatiSystem, x0, t_span, t_eval,
                      tol=ORACLE_TOL) -> Trajectory:
    sol = _solve(riccati_rhs(sys), t_span, x0, t_eval, tol)
    return Trajectory(states=sol.y)


def cross_validate(fs: FundamentalSolution, sys: RiccatiSystem):
    """Compare the synthesized solution with direct integration.

    The dominant root (i = 1) is integrated forward in y and compared in
    relative value; every root gets a logarithmic-derivative comparison on a
    short span; the bottom root additionally gets a backward Riccati run.
    Returns a dict of the comparisons actually made.
    """
    t0 = float(fs.nodes[0])
    out = {"mode": "forward_y" if fs.i == 1 else "log_derivative"}

    if fs.i == 1:
        span = SPAN_DOMINANT
    else:
        # forward integration picks up the dominant mode at the local error
        # level; keep exp(gap * span) * tol safely below the comparison tol
        gap = max(sys.kernel.gamma[0], 1e-3)
        span = min(SPAN_SUBDOMINANT, math.log(1e6) / gap)
    t_end = min(t0 + span, float(fs.nodes[-1]))
    t_eval = np.linspace(t0, t_end, 101)

    traj = integrate_linear4(sys.a, sys.r, fs.initial_state(), (t0, t_end), t_eval)
    out["span"] = [t0, t_end]

    if fs.i == 1:
        y_direct = traj.states[0]
        y_synth = fs.y_at(t_eval)
        out["y_rel_error"] = float(
            np.max(np.abs(y_direct - y_synth) / np.maximum(np.abs(y_synth), 1e-300))
        )

    # logarithmic derivative: robust against dominant-mode contamination scale
    logderiv_direct = traj.states[1] / traj.states[0]
    z0, _, _ = fs.z.channels_at(t_eval)
    logderiv_synth = fs.lam + z0
    out["logderiv_error"] = float(
        np.max(np.abs(logderiv_direct - logderiv_synth)) / (1.0 + abs(fs.lam))
    )

    # Riccati equation integrated from the synthesized initial data
    x0 = (fs.z.value[0], fs.z.d1[0], fs.z.d2[0])
    forward_stable = all(g < 0 for g in sys.kernel.gamma)
    if forward_stable:
        ztraj = integrate_riccati(sys, x0, (t0, t_end), t_eval)
        z_synth = fs.z.channels_at(t_eval)[0]
        out["riccati_error"] = float(np.max(np.abs(ztraj.states[0] - z_synth)))
        out["riccati_direction"] = "forward"
    elif all(g > 0 for g in sys.kernel.gamma):
        # bottom root: unstable forward, contract backward, from the node
        # nearest t_end but never from t0 itself (a near-resonant spectrum
        # has a horizon so long that its first panel is wider than the span)
        idx = max(1, int(np.argmin(np.abs(fs.nodes - t_end))))
        t_start = float(fs.nodes[idx])
        xb = (fs.z.value[idx], fs.z.d1[idx], fs.z.d2[idx])
        t_eval_b = np.linspace(t_start, t0, 101)
        ztraj = integrate_riccati(sys, xb, (t_start, t0), t_eval_b)
        z_synth = fs.z.channels_at(t_eval_b)[0]
        out["riccati_error"] = float(np.max(np.abs(ztraj.states[0] - z_synth)))
        out["riccati_direction"] = "backward"
    return out
