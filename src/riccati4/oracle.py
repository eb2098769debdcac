"""Independent ground truth: adaptive direct integration.

Every comparison reads a run of the fourth-order equation from the
synthesized data, integrated by ODEPACK's LSODA (scipy's odeint: compiled
stepping that switches between Adams and BDF formulas; L. Petzold, SIAM J.
Sci. Stat. Comput. 4, 1983).  LSODA interpolates its output points from its
own step history, so the output points of a run cost no extra right-hand-side
calls.  By the change of variable y = exp(integral of (lam + z)), the Riccati
solution with the same data is y'/y - lam, so the log-derivative gap
|y'/y - (lam + z)| checks z against the Riccati equation without integrating
it and without the solver's Omega and F.  Forward integration is reliable for
the dominant mode only; subdominant modes are compared on short spans and,
for the bottom root, on a backward run.

cross_validate integrates at ORACLE_TOL over SPAN_DOMINANT time units for
the dominant root and at most SPAN_SUBDOMINANT for the others.
integrate_riccati and riccati_rhs integrate the Riccati system itself; they
are library entry points that the pipeline does not run.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import ODEintWarning, odeint

from .errors import NonFinite, StepUnderflow
from .exprlang import is_zero
from .riccati import F_nested, RiccatiSystem, sample_coefficients
from .synthesis import FundamentalSolution

ORACLE_TOL = 1e-12
SPAN_DOMINANT = 5.0
SPAN_SUBDOMINANT = 3.0


def _solve(rhs, t_span, y0, t_eval, tol) -> np.ndarray:
    """Run rhs from t_span[0] and return its states at t_eval, shape
    (n_state, len(t_eval)), evaluating rhs only inside the span that t_eval
    covers.  LSODA reports a failed run only as an ODEintWarning; it ends
    here as StepUnderflow.  A SolverError raised by rhs comes out as itself."""
    t = np.asarray(t_eval, dtype=float)
    prepended = bool(t[0] != t_span[0])
    if prepended:
        t = np.concatenate(([t_span[0]], t))
    if t[-1] < t[0]:
        # a backward run goes forward in s = -t: odeint's tcrit, which keeps
        # LSODA from stepping past the end, holds on increasing runs only
        forward = rhs
        rhs = lambda s, y: [-v for v in forward(-s, y)]  # noqa: E731
        t = -t
    with warnings.catch_warnings():
        warnings.simplefilter("error", ODEintWarning)
        try:
            states, info = odeint(rhs, np.asarray(y0, dtype=float), t, rtol=tol,
                                  atol=tol * 1e-2, tcrit=t[-1:], tfirst=True,
                                  full_output=True)
        except ODEintWarning as exc:
            message = str(exc).partition(" Run with full_output")[0]
            raise StepUnderflow(f"direct integration failed: {message}") from None
    # LSODA can report success without leaving t[0] (a first step that
    # underflows to 0 on a huge right-hand side): check that it got to the
    # end, which it counts as reached within 100 rounding units
    end = t[-1]
    if info["tcur"][-1] < end - 100 * np.finfo(float).eps * (abs(end) + end - t[0]):
        raise StepUnderflow("direct integration failed: LSODA stopped short of "
                            "the end of the span")
    if not np.all(np.isfinite(states)):
        raise NonFinite("direct integration produced non-finite states")
    return states[prepended:].T


def _coefficient(a_k, r_k):
    """t -> a_k + r_k(t) as a Python float; a perturbation that is
    syntactically zero is never evaluated."""
    a_k = float(a_k)
    if is_zero(r_k):
        return lambda t: a_k
    return lambda t: a_k + r_k(t)


def linear4_rhs(a, r_exprs):
    """State (y, y', y'', y''') for the perturbed fourth-order equation.  The
    fourth derivative is formed on Python floats, where an overflow gives inf
    or nan without a warning; a value that is not finite raises NonFinite at
    once instead of costing the integrator its step budget."""
    c0, c1, c2, c3 = map(_coefficient, reversed(a), r_exprs)

    def rhs(t, y):
        y0, y1, y2, y3 = y.tolist()
        y4 = -(c3(t) * y3 + c2(t) * y2 + c1(t) * y1 + c0(t) * y0)
        if not math.isfinite(y4):
            raise NonFinite(f"fourth-order right-hand side is not finite at t={t!r}")
        return (y1, y2, y3, y4)

    return rhs


def integrate_linear4(a, r_exprs, y0, t_span, t_eval, tol=ORACLE_TOL) -> np.ndarray:
    return _solve(linear4_rhs(a, r_exprs), t_span, y0, t_eval, tol)


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


def integrate_riccati(sys: RiccatiSystem, x0, t_span, t_eval, tol=ORACLE_TOL) -> np.ndarray:
    return _solve(riccati_rhs(sys), t_span, x0, t_eval, tol)


def _logderiv_gap(fs: FundamentalSolution, sys: RiccatiSystem, k, t_span, t_eval):
    """Run the fourth-order equation from the state of y at node k and return
    the run's states and its log-derivative gap |y'/y - (lam + z)| at t_eval."""
    states = integrate_linear4(sys.a, sys.r, fs.state_at(k), t_span, t_eval)
    z0, _, _ = fs.z.channels_at(t_eval)
    return states, np.abs(states[1] / states[0] - (fs.lam + z0))


def cross_validate(fs: FundamentalSolution, sys: RiccatiSystem):
    """Compare the synthesized solution with runs of the fourth-order equation.

    Each root is run forward from t0 over a short span: root 1 is compared in
    relative value, every root by its log-derivative gap over 1 + |lam|.
    `riccati_error` is the plain gap of a run in the Riccati system's stable
    direction: the forward run of root 1, a backward run of root 4.
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

    states, ld_gap = _logderiv_gap(fs, sys, 0, (t0, t_end), t_eval)
    out["span"] = [t0, t_end]

    if fs.i == 1:
        y_direct = states[0]
        y_synth = fs.y_at(t_eval)
        out["y_rel_error"] = float(
            np.max(np.abs(y_direct - y_synth) / np.maximum(np.abs(y_synth), 1e-300))
        )

    # logarithmic derivative: robust against dominant-mode contamination scale
    out["logderiv_error"] = float(np.max(ld_gap) / (1.0 + abs(fs.lam)))

    if all(g < 0 for g in sys.kernel.gamma):
        out["riccati_error"] = float(np.max(ld_gap))
        out["riccati_direction"] = "forward"
    elif all(g > 0 for g in sys.kernel.gamma):
        # bottom root: dominant backward; start from the node nearest t_end
        # but never from t0 itself (a near-resonant spectrum has a horizon so
        # long that its first panel is wider than the span)
        idx = max(1, int(np.argmin(np.abs(fs.nodes - t_end))))
        t_start = float(fs.nodes[idx])
        _, ld_gap = _logderiv_gap(fs, sys, idx, (t_start, t0),
                                  np.linspace(t_start, t0, 101))
        out["riccati_error"] = float(np.max(ld_gap))
        out["riccati_direction"] = "backward"
    return out
