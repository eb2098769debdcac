"""Numerical verification of the decay hypotheses and contraction constants.

The admissibility class for perturbations is measured by one exponential
transform per root index, shaped like the printed (adjoint) Green kernel:
on each side of the diagonal that carries kernel modes, the rate of that
side's slowest mode (KernelModes.slowest), which is the neighbouring spectral
gap, lam_i - lam_{i-1} on [t0, t] and lam_i - lam_{i+1} on [t, inf).  The top
root thus gets a pure tail integral, the bottom root a pure head integral and
the two in between both.  The class bound rho_i
is the largest value of these transforms over the nodes of a dense panel
grid, computed by the same head/tail recurrences as the Picard operator.  It
is a maximum over nodes, not an enclosure of the supremum over t.

The decay hypothesis H2 is checked on the kernel functional
L(t) = integral of w(|t - s|) |r_j(s)| ds, where w = |g| + |g_t| + |g_tt| of
the printed kernel depends only on u = |t - s|.  Each of its three inner
sums has at most three exponential terms and so at most two real zeros
(Laguerre's rule of signs), located once per root with brentq.  With them as
breakpoints, L is integrated on fixed Gauss-Legendre panels in u: one tail
grid of H2_TAIL_LENGTHS slowest-mode decay lengths shared by every sample
time, and per sample time one head grid on [0, t - t0] graded toward both
ends.  The grading is steep enough that the first panel is no wider than the
decay length of the fastest kernel mode, however long the sample window.
The tests check it against the adaptive route, L_functional in
tests/reference_routes.py.

Both rho and H2 settle their tails to TAIL_TOL = 1e-10, a module constant
that is not a run's quad_tol (1e-12 by default); H2 passes below
H2_TOL = 1e-6.

The contraction constants are assembled from the Green-kernel branch bounds:
delta_w_i is the kernel normalization delta_gamma, alpha_{j,i} the branch
coefficient sums at derivative order j, A_i their normalized total, and
varsigma_i collects the nonlinearity coefficients scaled by the ball radius
eta.  A_i is computed both from the closed-form root differences and from the
kernel bounds; the two must agree exactly, which pins down the one root-index
pattern whose displayed form disagrees with the kernel constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import exprlang
from .errors import TailNotConvergent
from .greens import kernel_for_root
from .quadrature import (adaptive_interval, adaptive_semi_infinite, graded_nodes, make_panels,
                         two_sided_transform)
from .spectra import CharacteristicData

H2_TOL = 1e-6
TAIL_TOL = 1e-10         # tails of rho and H2; not a run's quad_tol
RHO_GRID_NODES = 4096
RHO_SAMPLES = 256        # log-spaced sample offsets of rho_bound's tail check
H2_PANELS = 200          # Gauss-Legendre panels per side of the diagonal in check_h2
H2_TAIL_LENGTHS = 40.0   # check_h2 tail grid length, in slowest-mode decay lengths


def F_operator_eval(cd: CharacteristicData, i: int, E, t, t0, quad_tol=1e-12):
    """Class transform of |E| for root i evaluated at time t, by adaptive
    quadrature: the pointwise reference route for rho_bound's panel
    transforms.  Its kernel is exp(rate*(t-s)) at the slowest modes of the
    printed (adjoint) kernel, as in rho_bound."""
    if not callable(E):
        E = exprlang.parse(str(E))
    head_rate, tail_rate = kernel_for_root(cd, i).modes("adjoint").slowest()
    total = 0.0
    if head_rate is not None and t > t0:
        total += adaptive_interval(
            lambda s: np.exp(head_rate * (t - s)) * np.abs(np.asarray(E(s), dtype=float)),
            t0, t, quad_tol,
        )
    if tail_rate is not None:
        # kernel decays in s at rate tail_rate > 0
        total += adaptive_semi_infinite(
            lambda s: np.exp(tail_rate * (t - s)) * np.abs(np.asarray(E(s), dtype=float)),
            t, tail_rate, quad_tol,
        )
    return float(total)


def rho_bound(cd: CharacteristicData, i: int, r, t0):
    """Class bound of root i: max over j and over the nodes of one dense
    panel grid of the transform of r_j (a maximum over nodes, not an
    enclosure of the supremum).

    The grid joins RHO_GRID_NODES graded nodes on a window of 40 / min_gap
    decay lengths with RHO_SAMPLES log-spaced offsets; the panel head/tail
    recurrences give F_operator_eval at every node, the tail seeded past the
    window to TAIL_TOL.  The transform at the
    offsets must be non-increasing at the end of the window or
    TailNotConvergent is raised.
    """
    exprs = [exprlang.as_expr(rj) for rj in r]
    t_span = 40.0 / cd.min_gap
    samples = t0 + np.concatenate([[0.0], np.geomspace(1e-3, t_span, RHO_SAMPLES - 1)])
    panels = make_panels(np.union1d(graded_nodes(t0, t0 + t_span, RHO_GRID_NODES), samples))
    at_samples = np.searchsorted(panels.nodes, samples)
    head_rate, tail_rate = kernel_for_root(cd, i).modes("adjoint").slowest()
    rho = 0.0
    for rj in exprs:
        if exprlang.is_zero(rj):
            continue
        transform = two_sided_transform(panels, lambda s: np.abs(rj(s)), np.abs(rj(panels.gl_x)),
                                        head_rate, tail_rate, TAIL_TOL)
        values = transform[at_samples]
        tail = values[-8:]
        if values.max() > 0 and np.any(np.diff(tail) > 1e-12 + 1e-6 * values.max()):
            raise TailNotConvergent(
                f"transform of {rj.source!r} not settling on the sample window"
            )
        rho = max(rho, float(transform.max()))
    return rho


# --- contraction constants ---------------------------------------------------

def contraction_constants(cd: CharacteristicData, i: int, eta: float):
    """(delta_w, (alpha_0, alpha_1, alpha_2), A, varsigma) for root i.

    alpha_j are the kernel branch constants sum |gamma_k - gamma_l|
    |gamma_m|^j taken over the full mode set; delta_w is the signed kernel
    normalization; A = sum_j alpha_j / |delta_w|; varsigma is the displayed
    nonlinearity budget, valid for eta in (0, 1/2).
    """
    if not 0.0 < eta < 0.5:
        raise ValueError("eta must lie in (0, 0.5)")
    g1, g2, g3 = cd.gamma_for(i)
    delta_w = (g2 - g1) * (g3 - g2) * (g3 - g1)
    coefs = (abs(g3 - g2), abs(g1 - g3), abs(g2 - g1))
    mags = (abs(g1), abs(g2), abs(g3))
    alpha = tuple(
        coefs[0] * mags[0] ** j + coefs[1] * mags[1] ** j + coefs[2] * mags[2] ** j
        for j in range(3)
    )
    a_const = sum(alpha) / abs(delta_w)
    lam = cd.lam_for(i)
    a3, a2 = cd.a[0], cd.a[1]
    varsigma = (
        3.0 * abs(lam) ** 2 + 5.0 * abs(lam) + 3.0
        + (19.0 + 7.0 * abs(lam) + abs(12.0 * lam + 3.0 * a3)
           + abs(6.0 * lam**2 + 3.0 * lam * a3 + a2)) * eta
    )
    return delta_w, alpha, a_const, varsigma


def alpha_displayed(cd: CharacteristicData, i: int):
    """The displayed alpha_{j,i} patterns in root-difference form.

    For i in {1, 2, 4} these coincide with the kernel constants; the i = 3
    pattern is printed with |lam_2 + lam_4 - 2 lam_3|-type weights and does
    not; the kernel-derived values are authoritative for the envelope.
    """
    l1, l2, l3, l4 = cd.lam
    if i == 1:
        rows = ((abs(l4 - l3), abs(l2 - l1)), (abs(l4 - l2), abs(l3 - l1)),
                (abs(l3 - l2), abs(l4 - l1)))
    elif i == 2:
        rows = ((abs(l3 - l4), abs(l1 - l2)), (abs(l1 - l3), abs(l4 - l2)),
                (abs(l1 - l4), abs(l3 - l2)))
    elif i == 3:
        rows = ((abs(l2 - l1), abs(l4 - l3)), (abs(l2 + l4 - 2 * l3), abs(l1 - l3)),
                (abs(l1 + l4 - 2 * l3), abs(l2 - l3)))
    elif i == 4:
        rows = ((abs(l3 - l2), abs(l1 - l4)), (abs(l3 - l1), abs(l2 - l4)),
                (abs(l2 - l1), abs(l3 - l4)))
    else:
        raise ValueError("root index must be 1..4")
    return tuple(
        sum(coef * base**j for coef, base in rows) for j in range(3)
    )


def kernel_route_A(cd: CharacteristicData, i: int):
    """A_i recomputed from the Green-kernel bound coefficients."""
    kernel = kernel_for_root(cd, i)
    total = 0.0
    for d in range(3):
        for side in kernel.kernel_bound(d, orientation="adjoint").values():
            total += side[0]
    return total / abs(kernel.delta_gamma)


def smallness_check(rho, a_const, varsigma):
    """(flag, Phi): flag is rho * A * varsigma < 1; Phi = A / (1 - rho A varsigma)
    when the flag holds, else None."""
    product = rho * a_const * varsigma
    if product < 1.0:
        return True, a_const / (1.0 - product)
    return False, None


# --- decay hypothesis ----------------------------------------------------------

def _exp_sum_zeros(coefs, rates, hi):
    """Sorted zeros in (0, hi) of u -> sum_k coefs[k] * exp(rates[k] * u).

    A sum of n terms has at most n - 1 real zeros (Laguerre's rule of signs).
    Scaled by exp(-max(rates) * u), so that no exponent is positive, the sum
    is monotone between consecutive zeros of its derivative, a sum of one
    term fewer whose zeros are found the same way; brentq finds the zero of
    each piece whose ends differ in sign."""
    top = max(rates)
    shifted = [rate - top for rate in rates]

    def scaled(u):
        return sum(c * math.exp(rate * u) for c, rate in zip(coefs, shifted))

    slope = [(c * rate, rate) for c, rate in zip(coefs, shifted) if rate != 0.0]
    cuts = [0.0, hi]
    if len(slope) > 1:
        cuts[1:1] = _exp_sum_zeros(*zip(*slope), hi)
    return [brentq(scaled, a, b) for a, b in zip(cuts[:-1], cuts[1:])
            if np.sign(scaled(a)) * np.sign(scaled(b)) < 0.0]


def _weight(modes, side, u):
    """w(u) = |g| + |g_t| + |g_tt| of the kernel at distance u >= 0 from the
    diagonal on one side ("head": s = t - u, "tail": s = t + u)."""
    dt = u if side == "head" else -u
    return sum(np.abs(modes.side_eval(dt, d, side)) for d in range(3))


def _kinks(modes, side, hi):
    """Zeros in (0, hi) of the three inner sums of _weight: its kinks."""
    sign, sided = (1.0, modes.head) if side == "head" else (-1.0, modes.tail)
    return np.array([z for d in range(3) for z in _exp_sum_zeros(
        [m.coef * m.rate**d for m in sided], [sign * m.rate for m in sided], hi)])


def _graded(length, n_panels, modes):
    """n_panels + 1 nodes on [0, length] graded toward 0 like u**p, with p >= 2
    large enough that the first panel is no wider than the decay length of
    the fastest kernel mode (of either side)."""
    fast = max(abs(m.rate) for m in modes.head + modes.tail)
    return graded_nodes(0.0, length, n_panels + 1,
                        max(2.0, math.log(length * fast) / math.log(n_panels)))


def _head_rule(modes, sample_ts, t0):
    """(s, weights, owner) of the head side, or None when no sample lies
    past t0: for each sample t, H2_PANELS panels on [0, t - t0] graded toward
    both ends (u = 0 carries the kernel scale, u = t - t0 the perturbation's
    near t0), with the kinks as extra breakpoints, flattened; s = t - u,
    weights are w(u) times the Gauss-Legendre weights, owner the sample
    index of each node."""
    lengths = sample_ts - t0
    if not np.any(lengths > 0.0):
        return None
    kinks = _kinks(modes, "head", lengths.max())
    grids = {}
    for k, length in enumerate(lengths):
        if length > 0.0:
            half = _graded(0.5 * length, H2_PANELS // 2, modes)
            grids[k] = make_panels(np.unique(np.concatenate([half, length - half,
                                                             kinks[kinks < length]])))
    u = np.concatenate([grid.gl_x.ravel() for grid in grids.values()])
    owner = np.concatenate([np.full(grid.gl_x.size, k) for k, grid in grids.items()])
    weights = np.concatenate([grid.gl_w.ravel() for grid in grids.values()])
    return sample_ts[owner] - u, weights * _weight(modes, "head", u), owner


def _tail_rule(modes, sample_ts):
    """(s, weights, last) of the tail side: one grid of H2_PANELS panels on
    [0, U], U = H2_TAIL_LENGTHS decay lengths of the slowest tail mode,
    graded away from u = 0, with the kinks as extra breakpoints;
    s = t + u for every sample (shape samples x panels x nodes), weights
    w(u) times the Gauss-Legendre weights, last the mask of the panels in
    the last decay length."""
    rate = modes.slowest()[1]
    span = H2_TAIL_LENGTHS / rate
    panels = make_panels(np.union1d(_graded(span, H2_PANELS, modes),
                                    _kinks(modes, "tail", span)))
    s = sample_ts[:, None, None] + panels.gl_x
    weights = panels.gl_w * _weight(modes, "tail", panels.gl_x)
    return s, weights, panels.nodes[:-1] >= span - 1.0 / rate


@dataclass
class DecayReport:
    verdict: str                 # "PASS" | "FAIL"
    samples: list                # [(t, L value), ...] per perturbation, flattened max
    fitted_rate: float | None


def check_h2(cd: CharacteristicData, i: int, r, sample_ts=None, t0=0.0):
    """Evaluate the kernel functional L of each perturbation at increasing
    times; PASS when the curve decays below H2_TOL by the last sample.
    The fitted exponential rate of the tail is reported.

    L(t) = integral over [t0, inf) of w(|t - s|) |r_j(s)| ds, where w is
    |g| + |g_t| + |g_tt| of the adjoint kernel on the side of s, runs on the
    fixed panels of _head_rule and _tail_rule, built once per root; |r_j| is
    evaluated in one call per side over all sample times and nodes.  The
    tail must settle: when its panels in the last decay length still
    contribute more than max(0.1 TAIL_TOL, 1e-15 times the total),
    TailNotConvergent is raised.
    """
    exprs = [rj for rj in map(exprlang.as_expr, r) if not exprlang.is_zero(rj)]
    if sample_ts is None:
        sample_ts = t0 + np.linspace(0.0, 40.0 / cd.min_gap, 12)
    sample_ts = np.asarray(sample_ts, dtype=float)

    modes = kernel_for_root(cd, i).modes("adjoint")
    head_side = _head_rule(modes, sample_ts, t0) if modes.head else None
    tail_side = _tail_rule(modes, sample_ts) if modes.tail else None
    curve = np.zeros_like(sample_ts)
    for rj in exprs:
        vals = np.zeros_like(sample_ts)
        if head_side is not None:
            s, weights, owner = head_side
            vals += np.bincount(owner, weights * np.abs(rj(s)), minlength=sample_ts.size)
        if tail_side is not None:
            s, weights, last = tail_side
            per_panel = (weights * np.abs(rj(s))).sum(axis=2)
            total = per_panel.sum(axis=1)
            if np.any(per_panel[:, last].sum(axis=1) > np.maximum(0.1 * TAIL_TOL, 1e-15 * total)):
                raise TailNotConvergent(
                    f"decay functional of {rj.source!r} not settling on the tail grid")
            vals += total
        curve = np.maximum(curve, vals)

    samples = [(float(t), float(v)) for t, v in zip(sample_ts, curve)]
    if curve.max() == 0.0:
        return DecayReport("PASS", samples, None)

    tail = curve[len(curve) // 2:]
    decaying = np.all(np.diff(tail) <= 1e-12 + 1e-9 * curve.max())
    below = curve[-1] <= H2_TOL
    rate = None
    positive = curve > curve.max() * 1e-14
    if positive.sum() >= 3:
        ts = sample_ts[positive]
        logs = np.log(curve[positive])
        rate = float(np.polyfit(ts, logs, 1)[0])
    verdict = "PASS" if (decaying and below) else "FAIL"
    return DecayReport(verdict, samples, rate)


# --- aggregate report ----------------------------------------------------------

@dataclass
class EnvelopeReport:
    eta: float
    delta_w: float
    alpha: tuple
    alpha_displayed: tuple
    A: float
    A_kernel: float
    varsigma: float
    rho: float
    smallness_ok: bool
    Phi: float | None
    h2: DecayReport


def envelope_report(cd: CharacteristicData, i: int, r, eta, t0=0.0) -> EnvelopeReport:
    delta_w, alpha, a_const, varsigma = contraction_constants(cd, i, eta)
    rho = rho_bound(cd, i, r, t0)
    ok, phi = smallness_check(rho, a_const, varsigma)
    return EnvelopeReport(
        eta=eta,
        delta_w=delta_w,
        alpha=alpha,
        alpha_displayed=alpha_displayed(cd, i),
        A=a_const,
        A_kernel=kernel_route_A(cd, i),
        varsigma=varsigma,
        rho=rho,
        smallness_ok=ok,
        Phi=phi,
        h2=check_h2(cd, i, r, t0=t0),
    )
