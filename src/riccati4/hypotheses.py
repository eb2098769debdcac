"""Numerical verification of the decay hypotheses and contraction constants.

The admissibility class for perturbations is measured by one exponential
transform per root index, shaped like the printed (adjoint) Green kernel:
on each side of the diagonal that carries kernel modes, the rate of that
side's slowest mode (KernelModes.slowest), which is the neighbouring spectral
gap, lam_i - lam_{i-1} on [t0, t] and lam_i - lam_{i+1} on [t, inf).  The top
root thus gets a pure tail integral, the bottom root a pure head integral and
the two in between both.  The class bound rho_i
is the largest value of these transforms over the nodes of a dense panel
grid, computed by the engine's head_transform and tail_transform.  It is a
maximum over nodes, not an enclosure of the supremum over t.  Only the
rates depend on the root: the grid and the samples of each |r_j| on it do
not.  So rho_bound is one pass over all the roots of a run: it builds the
grid once, samples each |r_j| once into one stack, and transforms the whole
stack in one call per (root, side), which forms each block's panel weights
once for every r_j; the report runs it before the roots and hands each
root its bound.  The grid's rule is ``quadrature.gl_order``'s at the largest
neighbouring gap, the fastest rate of these transforms: 8 points on the
benchmark workloads.  H2's grid keeps 16 points.

The decay hypothesis H2 is checked on the kernel functional
L(t) = integral of w(|t - s|) |r_j(s)| ds, where w = |g| + |g_t| + |g_tt| of
the printed kernel depends only on u = |t - s|, at 12 times evenly spaced on
rho's window [t0, t0 + TAIL_DECAY_LENGTHS / min_gap].  Each of its three
inner sums has at most three exponential terms and so at most two real zeros
(Laguerre's rule of signs), located once per root with brentq.  With these
kinks as cut points, w is one exponential sum per side between consecutive
cuts, so L is an exact combination of the same head/tail transforms of
|r_j|, one per kernel mode, read at t - cut and t + cut.  Each call samples
the stack of |r_j| once, as rho_bound does, on one graded panel grid that
holds every point read, and transforms it once per kernel mode.  The tail guard weighs
the kernel: when the part of L beyond TAIL_DECAY_LENGTHS slowest-mode decay
lengths is not negligible, TailNotConvergent is raised.  The tests check L
against the adaptive route, L_functional in tests/reference_routes.py.

Both rho and H2 settle their tails to TAIL_TOL = 1e-10, a module constant
that is not a run's quad_tol (1e-12 by default); H2 passes below
H2_TOL = 1e-6.

The contraction constants are assembled from the Green-kernel branch bounds:
delta_w_i is the kernel normalization delta_gamma, alpha_{j,i} the branch
coefficient sums at derivative order j, A_i their normalized total, and
varsigma_i collects the nonlinearity coefficients scaled by the ball radius
eta.  A_i is computed both from the closed-form root differences and from the
adjoint kernel modes; the two must agree exactly, which pins down the one
root-index pattern whose displayed form disagrees with the kernel constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import exprlang
from .errors import SolverError, TailNotConvergent
from .greens import kernel_for_root
from .quadrature import (TAIL_DECAY_LENGTHS, adaptive_interval, adaptive_semi_infinite,
                         exponential_tail_seed, gl_order, graded_nodes, head_transform,
                         make_panels, tail_transform)
from .spectra import CharacteristicData

H2_TOL = 1e-6
TAIL_TOL = 1e-10         # tails of rho and H2; not a run's quad_tol
RHO_GRID_NODES = 4096
RHO_SAMPLES = 256        # log-spaced sample offsets of rho_bound's tail check
H2_GRID_NODES = 1024     # graded nodes of check_h2's transform grid


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


def rho_bound(cd: CharacteristicData, roots, r, t0):
    """Class bounds {i: rho_i} of the root indices in `roots`, in one pass:
    rho_i is the max over j and over the nodes of one dense panel grid of
    root i's transform of r_j (a maximum over nodes, not an enclosure of the
    supremum).

    The grid and the samples do not depend on the root; only the rates do.
    The grid joins RHO_GRID_NODES graded nodes on the window
    [t0, t0 + TAIL_DECAY_LENGTHS / min_gap] with RHO_SAMPLES log-spaced
    offsets, with gl_order's rule at the largest neighbouring gap, and every
    nonzero |r_j| is sampled on its Gauss-Legendre points once, into one
    stack.  Each side of each root is one head_transform or
    seeded tail_transform of the whole stack, which forms each block's panel
    weights once for every r_j and gives F_operator_eval at every node, the
    tail seeded past the window to TAIL_TOL.  Root i's transform of r_j is
    its head plus its tail; its values at the offsets must be
    non-increasing at the end of the window.

    A root whose pass fails maps to the SolverError that it meets first in
    r_j order: r_j's evaluation on the grid, r_j's tail seed, or
    TailNotConvergent on the sample window.  envelope_report raises it.
    """
    t_span = TAIL_DECAY_LENGTHS / cd.min_gap
    samples = t0 + np.concatenate([[0.0], np.geomspace(1e-3, t_span, RHO_SAMPLES - 1)])
    nodes = np.union1d(graded_nodes(t0, t0 + t_span, RHO_GRID_NODES), samples)
    largest_gap = max(a - b for a, b in zip(cd.lam, cd.lam[1:]))
    panels = make_panels(nodes, gl_order(nodes, largest_gap))
    at_samples = np.searchsorted(panels.nodes, samples)
    exprs, f_gl, sampled = _abs_samples(r, panels)
    bounds = {}
    for i in roots:
        head_rate, tail_rate = kernel_for_root(cd, i).modes("adjoint").slowest()
        failed = list(sampled)
        transform = np.zeros((len(exprs), panels.nodes.size))
        if head_rate is not None:
            transform += head_transform(panels, f_gl, head_rate)
        if tail_rate is not None:
            seeds = np.zeros(len(exprs))
            for j, rj in enumerate(exprs):
                if failed[j] is None:
                    try:
                        seeds[j] = exponential_tail_seed(lambda s: np.abs(rj(s)), panels,
                                                         tail_rate, TAIL_TOL)
                    except SolverError as exc:
                        failed[j] = exc.with_traceback(None)
            transform += tail_transform(panels, f_gl, tail_rate, seeds)
        bounds[i] = _bound(exprs, transform, failed, at_samples)
    return bounds


def _abs_samples(r, panels):
    """The nonzero r_j, their |r_j| on the panels' Gauss-Legendre points as
    one zero-filled stack (one row per r_j), and each row's SolverError, its
    row left 0, or None."""
    exprs = [rj for rj in map(exprlang.as_expr, r) if not exprlang.is_zero(rj)]
    f_gl = np.zeros((len(exprs), *panels.gl_x.shape))
    errors = [None] * len(exprs)
    for j, rj in enumerate(exprs):
        try:
            np.abs(rj(panels.gl_x), out=f_gl[j])
        except SolverError as exc:  # its traceback's frames would keep the grid alive
            errors[j] = exc.with_traceback(None)
    return exprs, f_gl, errors


def _bound(exprs, transform, failed, at_samples):
    """One root's rho from its transform, head plus tail, of each r_j (one
    row per r_j): the max over j of each row's maximum; or the first
    SolverError in r_j order, a failed sample or tail seed, or
    TailNotConvergent when the transform rises over the last 8 offsets."""
    bound = 0.0
    for rj, row, error in zip(exprs, transform, failed):
        if error is not None:
            return error
        values = row[at_samples]
        if values.max() > 0 and np.any(np.diff(values[-8:]) > 1e-12 + 1e-6 * values.max()):
            return TailNotConvergent(
                f"transform of {rj.source!r} not settling on the sample window")
        bound = max(bound, float(row.max()))
    return bound


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
    """A_i recomputed from the adjoint Green-kernel modes: the sum over
    d = 0, 1, 2 and over each side of sum |coef| |rate|^d."""
    kernel = kernel_for_root(cd, i)
    modes = kernel.modes("adjoint")
    scale = abs(kernel.delta_gamma)
    total = 0.0
    for d in range(3):
        for side in (modes.head, modes.tail):
            # each side's sum is scaled by |delta_gamma| before it is added,
            # as the printed branch constants are, and the total divided back;
            # summing unscaled would move the last bits of A_kernel
            total += sum(abs(m.coef) * abs(m.rate) ** d for m in side) * scale
    return total / scale


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


def _cut_steps(modes, side, hi):
    """(cuts, steps, last) of one side's weight w(u) = sum_d |S_d(u)|
    ("head": s = t - u, "tail": s = t + u), with the kinks of w, the zeros
    in (0, hi) of its inner sums S_d, as cuts.

    On (cuts[k], cuts[k+1]) the weight is sum_m a[k, m] exp(e_m u), with
    e_m = +-rate_m the mode's exponent in u, so L on that side is
    sum_k sum_m steps[k, m] X_m(t -+ cuts[k]) for the head (X = H) or tail
    (X = K) transform of |r_j| at rate_m, where steps[k, m] =
    (a[k, m] - a[k-1, m]) exp(e_m cuts[k]) and a[-1, m] = 0.  last[m] =
    |a[-1, m]| exp(e_m hi) weighs the remainder past u = hi."""
    sign, sided = (1.0, modes.head) if side == "head" else (-1.0, modes.tail)
    exps = np.array([sign * m.rate for m in sided])
    terms = np.array([[m.coef * m.rate**d for m in sided] for d in range(3)])
    # S_d(u) = sum_m terms[d, m] exp(e_m u), in Python floats: brentq's
    # scalar calls of it run slower on numpy scalars
    kinks = [z for row in terms.tolist() for z in _exp_sum_zeros(row, exps.tolist(), hi)]
    cuts = np.unique(np.append(kinks, 0.0))
    # signs of S_d between the cuts, scaled so that no exponent is positive
    probes = 0.5 * (cuts + np.append(cuts[1:], hi))
    signs = np.sign(np.exp(np.outer(probes, exps - exps.max())) @ terms.T)
    amps = signs @ terms
    steps = np.diff(amps, axis=0, prepend=0.0) * np.exp(np.outer(cuts, exps))
    return cuts, steps, np.abs(amps[-1]) * np.exp(exps * hi)


def _transform_grid(modes, t0, end, reads):
    """check_h2's one panel grid: H2_GRID_NODES graded nodes on [t0, end]
    joined with the read points.  Where a panel is wider than 4 decay
    lengths of the fastest kernel mode (a spectrum with a tiny gap has a
    long sample window), every read point also gets neighbours 1, 2, 4, ...
    such lengths away, so that the panels next to it resolve that mode."""
    nodes = np.union1d(graded_nodes(t0, end, H2_GRID_NODES), reads)
    fast = max(abs(m.rate) for m in modes.head + modes.tail)
    coarse = np.diff(nodes).max() * fast
    if coarse > 4.0:
        offsets = 2.0 ** np.arange(math.ceil(math.log2(coarse))) / fast
        near = (reads[:, None] + np.concatenate([offsets, -offsets])).ravel()
        nodes = np.union1d(nodes, near[(near > t0) & (near < end)])
    return make_panels(nodes)


@dataclass
class DecayReport:
    verdict: str                 # "PASS" | "FAIL"
    samples: list                # [(t, L value), ...] per perturbation, flattened max
    fitted_rate: float | None


def check_h2(cd: CharacteristicData, i: int, r, t0=0.0):
    """Evaluate the kernel functional L of each perturbation at 12 times
    evenly spaced on rho's window [t0, t0 + TAIL_DECAY_LENGTHS / min_gap];
    PASS when the curve decays below H2_TOL by the last sample.  The fitted
    exponential rate of the tail is reported.

    L(t) = integral over [t0, inf) of w(|t - s|) |r_j(s)| ds, where w is
    |g| + |g_t| + |g_tt| of the adjoint kernel on the side of s.  Between
    the cuts of _cut_steps w is one exponential sum per side, so L combines
    head_transform / tail_transform values of |r_j|, one transform per
    kernel mode, read at t - cut (above t0) and t + cut.  They all run on
    one _transform_grid per call, on [t0, t_last + 2 span] with span =
    TAIL_DECAY_LENGTHS slowest-tail decay lengths, each on the stack of
    |r_j| sampled there once.  In r_j order, a failed sample raises its
    SolverError, and a part of L past u = span above max(0.1 TAIL_TOL,
    1e-15 times the tail part) raises TailNotConvergent.
    """
    sample_ts = t0 + np.linspace(0.0, TAIL_DECAY_LENGTHS / cd.min_gap, 12)

    modes = kernel_for_root(cd, i).modes("adjoint")
    t_last = float(sample_ts[-1])
    span = TAIL_DECAY_LENGTHS / modes.slowest()[1] if modes.tail else 0.0
    sides = []  # (modes, transform, read points, steps, remainder weights)
    if modes.head:
        cuts, steps, _ = _cut_steps(modes, "head", t_last - t0)
        # a cut past t - t0 reads H(t0) = 0
        sides.append((modes.head, head_transform,
                      np.maximum(sample_ts[:, None] - cuts, t0), steps, None))
    if modes.tail:
        cuts, steps, last = _cut_steps(modes, "tail", span)
        sides.append((modes.tail, tail_transform,
                      sample_ts[:, None] + np.append(cuts, span), steps, last))
    panels = _transform_grid(modes, t0, t_last + 2.0 * span,
                             np.concatenate([side[2].ravel() for side in sides]))
    reads = [np.searchsorted(panels.nodes, side[2]) for side in sides]
    if not all(np.array_equal(panels.nodes[at], side[2]) for at, side in zip(reads, sides)):
        raise RuntimeError("H2 read points are not nodes of the transform grid")

    exprs, f_gl, sampled = _abs_samples(r, panels)
    stacked = [[transform(panels, f_gl, m.rate)[:, at] for m in sided]
               for (sided, transform, *_), at in zip(sides, reads)] if exprs else []
    curve = np.zeros_like(sample_ts)
    for j, (rj, error) in enumerate(zip(exprs, sampled)):
        if error is not None:
            raise error
        vals = np.zeros_like(sample_ts)
        for (*_, steps, last), side_modes in zip(sides, stacked):
            values = np.array([mode[j] for mode in side_modes])
            part = np.einsum("msk,km->s", values[:, :, :len(steps)], steps)
            if last is not None and np.any(last @ values[:, :, -1]
                                           > np.maximum(0.1 * TAIL_TOL, 1e-15 * part)):
                raise TailNotConvergent(
                    f"decay functional of {rj.source!r} not settling on the tail grid")
            vals += part
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


def envelope_report(cd: CharacteristicData, i: int, r, eta, rho, t0=0.0) -> EnvelopeReport:
    """The constants, smallness flag and H2 report of root i.  rho is root
    i's entry of rho_bound; when that is the root's SolverError, it is
    raised here, after the contraction constants and before H2."""
    delta_w, alpha, a_const, varsigma = contraction_constants(cd, i, eta)
    if isinstance(rho, SolverError):
        raise rho
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
