"""Numerical verification of the decay hypotheses and contraction constants.

The admissibility class for perturbations is measured by four exponential
transforms (one per root index): a pure tail integral for the top root, a
pure head integral for the bottom root, and two-sided integrals in between,
each with the neighbouring spectral gaps as rates.  The class bound rho_i
is the largest value of these transforms over the nodes of a dense panel
grid, computed by the same head/tail recurrences as the Picard operator.  It
is a maximum over nodes, not an enclosure of the supremum over t.

The contraction constants are assembled from the Green-kernel branch bounds:
delta_w_i is the kernel normalization delta_gamma, alpha_{j,i} the branch
coefficient sums at derivative order j, A_i their normalized total, and
varsigma_i collects the nonlinearity coefficients scaled by the ball radius
eta.  A_i is computed both from the closed-form root differences and from the
kernel bounds; the two must agree exactly, which pins down the one root-index
pattern whose displayed form disagrees with the kernel constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang
from .errors import TailNotConvergent
from .greens import kernel_for_root, L_functional
from .quadrature import (adaptive_interval, adaptive_semi_infinite, exponential_tail_seed,
                         graded_nodes, head_transform, make_panels, tail_transform)
from .spectra import CharacteristicData

H2_TOL = 1e-6
RHO_GRID_NODES = 4096


def _gap_rates(cd: CharacteristicData, i: int):
    """(head_rate, tail_rate) for the class transform of root i.

    head kernel: exp(-head_rate*(t-s)) on [t0, t], head_rate > 0;
    tail kernel: exp(-tail_rate*(t-s)) on [t, inf), tail_rate < 0.
    Either may be None (pure one-sided transforms at the extreme roots).
    """
    lam = cd.lam
    if i == 1:
        return None, lam[1] - lam[0]
    if i == 2:
        return lam[0] - lam[1], lam[2] - lam[1]
    if i == 3:
        return lam[1] - lam[2], lam[3] - lam[2]
    if i == 4:
        return lam[2] - lam[3], None
    raise ValueError("root index must be 1..4")


def F_operator_eval(cd: CharacteristicData, i: int, E, t, t0, quad_tol=1e-12):
    """Class transform of |E| for root i evaluated at time t, by adaptive
    quadrature: the pointwise reference route for rho_bound's panel
    transforms."""
    if not callable(E):
        E = exprlang.parse(str(E))
    head_rate, tail_rate = _gap_rates(cd, i)
    total = 0.0
    if head_rate is not None and t > t0:
        total += adaptive_interval(
            lambda s: np.exp(-head_rate * (t - s)) * np.abs(np.asarray(E(s), dtype=float)),
            t0, t, quad_tol,
        )
    if tail_rate is not None:
        # kernel decays in s at rate -tail_rate > 0
        total += adaptive_semi_infinite(
            lambda s: np.exp(-tail_rate * (t - s)) * np.abs(np.asarray(E(s), dtype=float)),
            t, -tail_rate, quad_tol,
        )
    return float(total)


def rho_bound(cd: CharacteristicData, i: int, r, t0, t_span=None,
              n_samples=256, quad_tol=1e-10):
    """Class bound of root i: max over j and over the nodes of one dense
    panel grid of the transform of r_j (a maximum over nodes, not an
    enclosure of the supremum).

    The grid joins RHO_GRID_NODES graded nodes on a window of 40 / min_gap
    decay lengths with n_samples log-spaced offsets; the panel head/tail
    recurrences give F_operator_eval at every node.  The transform at the
    offsets must be non-increasing at the end of the window or
    TailNotConvergent is raised.
    """
    exprs = [exprlang.as_expr(rj) for rj in r]
    if t_span is None:
        t_span = 40.0 / cd.min_gap
    samples = t0 + np.concatenate([[0.0], np.geomspace(1e-3, t_span, n_samples - 1)])
    panels = make_panels(np.union1d(graded_nodes(t0, t0 + t_span, RHO_GRID_NODES), samples))
    at_samples = np.searchsorted(panels.nodes, samples)
    head_rate, tail_rate = _gap_rates(cd, i)
    rho = 0.0
    for rj in exprs:
        if exprlang.is_zero(rj):
            continue
        f_gl = np.abs(rj(panels.gl_x))
        transform = np.zeros(panels.nodes.size)
        if head_rate is not None:
            transform += head_transform(panels, f_gl, -head_rate)
        if tail_rate is not None:
            seed = exponential_tail_seed(lambda s: np.abs(rj(s)), float(panels.nodes[-1]),
                                         -tail_rate, quad_tol, first_width=float(panels.widths[-1]))
            transform += tail_transform(panels, f_gl, -tail_rate, seed)
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

@dataclass
class DecayReport:
    verdict: str                 # "PASS" | "FAIL"
    samples: list                # [(t, L value), ...] per perturbation, flattened max
    fitted_rate: float | None
    tol: float


def check_h2(cd: CharacteristicData, i: int, r, sample_ts=None, t0=0.0,
             h2_tol=H2_TOL, quad_tol=1e-10):
    """Evaluate the kernel functional of each perturbation at increasing
    times; PASS when the curve decays below h2_tol by the last sample.
    The fitted exponential rate of the tail is reported."""
    exprs = [exprlang.as_expr(rj) for rj in r]
    kernel = kernel_for_root(cd, i)
    if sample_ts is None:
        span = 40.0 / cd.min_gap
        sample_ts = t0 + np.linspace(0.0, span, 12)
    sample_ts = np.asarray(sample_ts, dtype=float)

    curve = np.zeros_like(sample_ts)
    for rj in exprs:
        if exprlang.is_zero(rj):
            continue
        vals = np.array([
            L_functional(kernel, rj, t, t0, quad_tol=quad_tol) for t in sample_ts
        ])
        curve = np.maximum(curve, vals)

    samples = [(float(t), float(v)) for t, v in zip(sample_ts, curve)]
    if curve.max() == 0.0:
        return DecayReport("PASS", samples, None, h2_tol)

    tail = curve[len(curve) // 2:]
    decaying = np.all(np.diff(tail) <= 1e-12 + 1e-9 * curve.max())
    below = curve[-1] <= h2_tol
    rate = None
    positive = curve > curve.max() * 1e-14
    if positive.sum() >= 3:
        ts = sample_ts[positive]
        logs = np.log(curve[positive])
        rate = float(np.polyfit(ts, logs, 1)[0])
    verdict = "PASS" if (decaying and below) else "FAIL"
    return DecayReport(verdict, samples, rate, h2_tol)


# --- aggregate report ----------------------------------------------------------

@dataclass
class EnvelopeReport:
    i: int
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


def envelope_report(cd: CharacteristicData, i: int, r, eta, t0=0.0,
                    h2_tol=H2_TOL) -> EnvelopeReport:
    delta_w, alpha, a_const, varsigma = contraction_constants(cd, i, eta)
    rho = rho_bound(cd, i, r, t0)
    ok, phi = smallness_check(rho, a_const, varsigma)
    return EnvelopeReport(
        i=i,
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
        h2=check_h2(cd, i, r, t0=t0, h2_tol=h2_tol),
    )
