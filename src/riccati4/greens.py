"""Piecewise-exponential Green kernels of the shifted cubic.

A kernel is built from the three shifted roots gamma_j (strictly ordered,
descending) of the cubic  mu^3 + b2 mu^2 + b1 mu + b0.  Two orientations are
provided:

``direct``
    The dichotomy-split kernel that inverts the cubic itself: modes with
    negative gamma live on the head side (s <= t), modes with positive gamma
    on the tail side (s >= t), each with its natural residue weight.  The
    second-derivative jump across t = s is +1 and, for fixed s, t -> g(t, s)
    solves the homogeneous shifted cubic off the diagonal.

``adjoint``
    The transposed-kernel family written with exponents exp(-gamma_j (t-s)).
    It carries the same per-branch exponential bounds and the same constants,
    in which the paper's envelope and first-iterate ratio are printed, but as
    an operator it inverts the reflected cubic (roots -gamma_j).  Within this
    family two branch signs are fixed so that g and dg/dt are continuous
    across t = s, which the bound and jump certificates require.

The pipeline solves and certifies with ``direct`` only.
``picard.resolve_orientation`` is the residual ground-truth test behind that
choice, kept as a library entry point; the adjoint family remains available
for evaluating the printed closed forms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ZeroRoot
from .quadrature import adaptive_interval, adaptive_semi_infinite
from .spectra import GAP_TOL


class SignCase(enum.Enum):
    ALL_NEG = "all_neg"
    ONE_POS = "one_pos"
    TWO_POS = "two_pos"
    ALL_POS = "all_pos"


def classify_sign_pattern(gamma, gap_tol=GAP_TOL) -> SignCase:
    """Sign case of the descending triple; ZeroRoot when any |gamma| < gap_tol."""
    g = tuple(sorted((float(x) for x in gamma), reverse=True))
    if any(abs(x) < gap_tol for x in g):
        raise ZeroRoot(f"shifted root too close to zero: {g!r}")
    n_pos = sum(1 for x in g if x > 0)
    return (SignCase.ALL_NEG, SignCase.ONE_POS, SignCase.TWO_POS, SignCase.ALL_POS)[n_pos]


@dataclass(frozen=True)
class Mode:
    coef: float
    rate: float


@dataclass(frozen=True)
class KernelModes:
    """Kernel as sum(coef * exp(rate*(t-s))) on each side of the diagonal.

    Head modes have rate < 0 (decay for t > s), tail modes rate > 0
    (decay for s > t); jump is the normalized second-derivative jump
    g_tt(s+, s) ... g_tt across the diagonal, head side minus tail side.
    """

    head: tuple
    tail: tuple
    jump: float

    def eval(self, dt, d=0):
        """d-th t-derivative at t - s = dt (array ok); head side wins ties."""
        dt = np.asarray(dt, dtype=float)
        out = np.zeros_like(dt)
        head_mask = dt >= 0.0
        for m in self.head:
            out += np.where(head_mask, m.coef * m.rate**d * np.exp(m.rate * np.where(head_mask, dt, 0.0)), 0.0)
        tail_mask = ~head_mask
        for m in self.tail:
            out += np.where(tail_mask, m.coef * m.rate**d * np.exp(m.rate * np.where(tail_mask, dt, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def side_eval(self, dt, d, side):
        """One-sided evaluation (no diagonal tie-break); side in {head, tail}."""
        dt = np.asarray(dt, dtype=float)
        modes = self.head if side == "head" else self.tail
        out = np.zeros_like(dt)
        for m in modes:
            out += m.coef * m.rate**d * np.exp(m.rate * dt)
        return out if out.ndim else float(out)


def _pprime(gamma):
    g1, g2, g3 = gamma
    return (
        (g1 - g2) * (g1 - g3),
        (g2 - g1) * (g2 - g3),
        (g3 - g1) * (g3 - g2),
    )


def _dichotomic_modes(gamma) -> KernelModes:
    """Dichotomy-split Green kernel for the cubic with roots gamma."""
    pp = _pprime(gamma)
    head = tuple(Mode(1.0 / pp[j], gamma[j]) for j in range(3) if gamma[j] < 0.0)
    tail = tuple(Mode(-1.0 / pp[j], gamma[j]) for j in range(3) if gamma[j] > 0.0)
    return KernelModes(head=head, tail=tail, jump=1.0)


@dataclass(frozen=True)
class GreenKernel:
    gamma: tuple          # strictly decreasing shifted roots
    delta_gamma: float    # (g2-g1)(g3-g2)(g3-g1)
    case: SignCase

    @classmethod
    def from_gamma(cls, gamma, gap_tol=GAP_TOL):
        g = tuple(sorted((float(x) for x in gamma), reverse=True))
        case = classify_sign_pattern(g, gap_tol=gap_tol)
        g1, g2, g3 = g
        dg = (g2 - g1) * (g3 - g2) * (g3 - g1)
        return cls(gamma=g, delta_gamma=dg, case=case)

    def modes(self, orientation="direct") -> KernelModes:
        if orientation == "direct":
            return _dichotomic_modes(self.gamma)
        if orientation == "adjoint":
            # transposed family: dichotomic kernel of the negated roots, with
            # the one-sided all-negative branch keeping its printed sign
            mirrored = tuple(sorted((-x for x in self.gamma), reverse=True))
            base = _dichotomic_modes(mirrored)
            sign = -1.0 if self.case is SignCase.ALL_NEG else 1.0
            return KernelModes(
                head=tuple(Mode(sign * m.coef, m.rate) for m in base.head),
                tail=tuple(Mode(sign * m.coef, m.rate) for m in base.tail),
                jump=sign,
            )
        raise ValueError(f"unknown orientation {orientation!r}")

    def eval(self, t, s, d=0, orientation="direct"):
        """d-th t-derivative of the kernel at (t, s); d in 0..3.

        d = 3 is only meaningful off the diagonal (distribution part excluded).
        """
        if d not in (0, 1, 2, 3):
            raise ValueError("derivative order must be 0..3")
        dt = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
        return self.modes(orientation).eval(dt, d)

    def second_derivative_limits(self, orientation="direct"):
        """One-sided limits of d2g/dt2 at t = s, (head side, tail side)."""
        m = self.modes(orientation)
        head = sum(mode.coef * mode.rate**2 for mode in m.head)
        tail = sum(mode.coef * mode.rate**2 for mode in m.tail)
        return head, tail

    def cubic_coeffs(self, orientation="direct"):
        """(b2, b1, b0) of the monic cubic annihilating t -> g(t, s) off the
        diagonal: the shifted cubic for direct, its reflection for adjoint."""
        roots = self.gamma if orientation == "direct" else tuple(-x for x in self.gamma)
        poly = np.poly(np.asarray(roots))
        return tuple(float(c) for c in poly[1:])

    # --- exponential bounds -------------------------------------------------

    def kernel_bound(self, d, orientation="adjoint"):
        """Per-branch bound data: dict side -> (raw_coefficient, alpha).

        |d^d g / dt^d| <= (raw_coefficient / |delta_gamma|) * exp(-alpha*(t-s))
        on that side.  For the transposed family this reproduces the branch
        constants sum |gamma_k - gamma_l| |gamma_j|^d and the rates alpha
        (max gamma on the tail branch, min gamma on the head branch of the
        one-sided cases).
        """
        m = self.modes(orientation)
        out = {}
        scale = abs(self.delta_gamma)
        if m.head:
            coef = sum(abs(mode.coef) * abs(mode.rate) ** d for mode in m.head) * scale
            alpha = -max(mode.rate for mode in m.head)
            out["head"] = (coef, alpha)
        if m.tail:
            coef = sum(abs(mode.coef) * abs(mode.rate) ** d for mode in m.tail) * scale
            alpha = -min(mode.rate for mode in m.tail)
            out["tail"] = (coef, alpha)
        return out

    def bound_value(self, t, s, d, orientation="adjoint"):
        """Pointwise value of the exponential bound at (t, s)."""
        dt = np.asarray(t, dtype=float) - np.asarray(s, dtype=float)
        bounds = self.kernel_bound(d, orientation)
        scale = abs(self.delta_gamma)
        out = np.zeros_like(np.asarray(dt, dtype=float))
        if "head" in bounds:
            coef, alpha = bounds["head"]
            out = np.where(dt >= 0.0, coef / scale * np.exp(-alpha * np.maximum(dt, 0.0)), out)
        if "tail" in bounds:
            coef, alpha = bounds["tail"]
            out = np.where(dt < 0.0, coef / scale * np.exp(-alpha * np.minimum(dt, 0.0)), out)
        return out if np.ndim(out) else float(out)


def kernel_for_root(cd, i, gap_tol=GAP_TOL) -> GreenKernel:
    """Green kernel for the shifted cubic of 1-based root index i."""
    return GreenKernel.from_gamma(cd.gamma_for(i), gap_tol=gap_tol)


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
        rate = min(m.rate for m in modes.tail)
        tail_part = adaptive_semi_infinite(lambda s: weight(s, "tail"), t, rate, quad_tol)
    return head_part + tail_part
